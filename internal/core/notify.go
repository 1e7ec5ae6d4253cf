package core

import (
	"strconv"
	"strings"

	"repro/internal/notify"
	"repro/internal/shell"
)

// This file threads the notify bus through the session. Emission sites
// mirror the journal's: discrete transitions (window create/close,
// command execution, faults via the obs sink) publish where they
// happen, while text changes are announced by the sweep that ends each
// top-level interaction (JournalSweep), the same pass that journals the
// interaction's state — so typing, Cut, Paste, Undo, Get!, and
// file-interface writes all produce the same "body" (or "tag") event,
// coalesced per interaction rather than per rune.

// winID is the window id used for event attribution, 0 when there is
// no window context.
func winID(w *Window) int {
	if w == nil {
		return 0
	}
	return w.ID
}

// publishGen announces that window id's body or tag (kind) reached
// buffer generation g. The published generation is in vfs gen space
// (text gen + 1, matching what /mnt/help/<n>/body reports through
// Stat), so a remote cache can compare it against its own entries.
// Formatting it costs an allocation per event; while nobody has ever
// listened (armed is false), the bare skeleton goes out instead —
// resume still works, and a consumer that later backfills a
// detail-less body event must treat the generation as unknown (assume
// stale). This keeps the append hot path at its pre-notify alloc count
// for the common session no one watches.
func (h *Help) publishGen(id int, kind string, g uint64, armed bool) {
	detail := ""
	if armed {
		detail = string(strconv.AppendUint([]byte("gen "), g+1, 10))
	}
	h.Notify.Publish(id, kind, detail)
}

// watchCmd implements the Watch built-in: `Watch cmd args...` runs the
// command once, then again every time this window's body changes. The
// watcher registers as a managed proc — it lists in /mnt/help/procs and
// dies to Kill, Close!, and Exit like any command — and parks on a bus
// subscription between runs, so an idle watcher costs nothing: no
// polling, the inversion this subsystem exists for. It exits when the
// window closes. A command that modifies the body it watches will, of
// course, retrigger itself; that hazard is the user's to aim.
func (h *Help) watchCmd(w *Window, cmd string) {
	cmd = strings.TrimSpace(cmd)
	if w == nil || h.byID[w.ID] != w {
		h.appendErrors("Watch: no window\n")
		return
	}
	if cmd == "" {
		h.appendErrors("Watch: usage: Watch command ...\n")
		return
	}
	sub := h.Notify.Subscribe(w.ID, 0)
	out := procWriter{h}
	ctx := h.Shell.NewContext(out, out)
	ctx.FS = h.safeFS
	ctx.Dir = w.Dir()
	h.setHelpsel(ctx)
	ctx.Kill = &shell.KillFlag{}
	ctx.Spawn = h.spawnBg
	p := h.startProc("Watch "+cmd, w.ID, ctx, func(c *shell.Context) int {
		defer sub.Close()
		status := h.Shell.Run(c, cmd)
		for {
			ev, err := sub.Next(nil, 0)
			if err != nil || c.Kill.Killed() {
				return status
			}
			rerun := false
			for {
				switch ev.Kind {
				case "del":
					return status
				case "body", notify.KindGap:
					rerun = true
				}
				var ok bool
				if ev, ok = sub.TryNext(); !ok {
					break
				}
			}
			if rerun {
				status = h.Shell.Run(c, cmd)
				// Coalesce: changes that landed while the command ran
				// (including its own writes to the window, minus tag
				// noise) shouldn't queue a storm of reruns. Events are
				// drained, not acted on — except close, which still exits.
				for {
					ev, ok := sub.TryNext()
					if !ok {
						break
					}
					if ev.Kind == "del" {
						return status
					}
				}
			}
		}
	})
	if p != nil {
		// Kill must unblock a watcher parked between runs, not just set
		// the flag it would never wake to check.
		p.onKill = sub.Close
	} else {
		// startProc refused (proc limit): the run fn never executes, so
		// its deferred Close never will either — close here or the
		// subscription sits in the bus forever, woken by every publish.
		sub.Close()
	}
}
