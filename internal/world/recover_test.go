package world

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfile"
	"repro/internal/journal"
)

// countFS counts every byte written through it, so the reference run
// can learn the exact on-medium position of each step boundary.
type countFS struct {
	inner journal.Fsys
	n     *int64
}

func (c countFS) Create(name string) (journal.File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return countFile{f: f, n: c.n}, nil
}
func (c countFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }
func (c countFS) Rename(oldname, newname string) error { return c.inner.Rename(oldname, newname) }
func (c countFS) Remove(name string) error             { return c.inner.Remove(name) }
func (c countFS) List() ([]string, error)              { return c.inner.List() }

type countFile struct {
	f journal.File
	n *int64
}

func (c countFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}
func (c countFile) Sync() error  { return c.f.Sync() }
func (c countFile) Close() error { return c.f.Close() }

// recoverFingerprint captures the journaled session state through the
// exported surface: focus, snarf, and every window's tag, body,
// selections and flags, plus the rendered screen.
func recoverFingerprint(h *core.Help) string {
	h.Render()
	var b strings.Builder
	cw, cs := h.Current()
	cid := 0
	if cw != nil {
		cid = cw.ID
	}
	fmt.Fprintf(&b, "cur=%d.%d snarf=%q\n", cid, cs, h.Snarf())
	for _, w := range h.Windows() {
		fmt.Fprintf(&b, "win %d hidden=%v dir=%v mod=%v sel=%v tag=%q body=%q\n",
			w.ID, w.Hidden(), w.IsDir, w.Body.Modified(), w.Sel, w.Tag.String(), w.Body.String())
	}
	b.WriteString(h.Screen().String())
	return b.String()
}

// recoverySteps is the scripted session: each step drives the world
// through a different journaled surface — commands, direct opens, the
// file interface — so a crash can land between any two kinds of
// mutation.
func recoverySteps() []func(t *testing.T, w *World) {
	return []func(t *testing.T, w *World){
		func(t *testing.T, w *World) {
			if _, err := w.Help.OpenFile(SrcDir+"/exec.c", "252"); err != nil {
				t.Fatal(err)
			}
		},
		func(t *testing.T, w *World) {
			win := w.Help.WindowByName(SrcDir + "/exec.c")
			w.Help.Execute(win, "Snarf")
		},
		func(t *testing.T, w *World) {
			win, err := w.Help.OpenFile(SrcDir+"/help.c", "")
			if err != nil {
				t.Fatal(err)
			}
			win.SetSelection(core.SubBody, 0, 0)
			w.Help.SetCurrent(win, core.SubBody)
			w.Help.Execute(win, "Paste")
		},
		func(t *testing.T, w *World) {
			win := w.Help.WindowByName(SrcDir + "/help.c")
			w.Help.Execute(win, "echo crash recovery drill")
		},
		func(t *testing.T, w *World) {
			// Through the file interface: the paper's programming surface.
			win := w.Help.WindowByName(SrcDir + "/help.c")
			body := fmt.Sprintf("%s/%d/body", MountRoot, win.ID)
			if err := w.FS.WriteFile(body, []byte("rewritten through /mnt/help\n")); err != nil {
				t.Fatal(err)
			}
		},
		func(t *testing.T, w *World) {
			win := w.Help.WindowByName(SrcDir + "/exec.c")
			w.Help.Execute(win, "Close!")
		},
	}
}

// runScripted boots a world, journals it into jfs, runs the scripted
// session calling after(k) once step k's records are flushed, and
// returns the world.
func runScripted(t *testing.T, jfs journal.Fsys, after func(step int, w *World)) *World {
	t.Helper()
	w, err := Build(120, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	jw, err := journal.Open(jfs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w.Help.AttachJournal(jw, 1<<20)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if after != nil {
		after(-1, w) // boundary after attach: checkpoint durable, no ops
	}
	for k, step := range recoverySteps() {
		step(t, w)
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after(k, w)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCrashRecoveryEndToEnd kills the machine (via the faultfile
// injector) at every step boundary and at torn mid-record points, then
// recovers a fresh world from whatever survived. At a step boundary the
// recovered session must match that step's golden fingerprint exactly;
// at a torn point recovery must still produce a working session from
// the surviving prefix.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	// Reference run: learn the byte position and fingerprint of every
	// step boundary.
	var written int64
	ref := journal.NewMemFS()
	var bounds []int64
	var goldens []string
	w := runScripted(t, countFS{inner: ref, n: &written}, func(step int, w *World) {
		bounds = append(bounds, atomic.LoadInt64(&written))
		goldens = append(goldens, "")
		if step >= 0 {
			goldens[len(goldens)-1] = recoverFingerprint(w.Help)
		}
	})
	if w.Help.PanicCount() != 0 {
		t.Fatalf("reference run recovered %d panics", w.Help.PanicCount())
	}

	for k := range bounds {
		if goldens[k] == "" {
			continue // the attach boundary has no golden
		}
		mem := journal.NewMemFS()
		crash := faultfile.CrashAfterBytes(mem, bounds[k])
		runScripted(t, crash, nil)
		if k < len(bounds)-1 && !crash.Crashed() {
			t.Fatalf("boundary %d: crash never triggered", k)
		}

		w2, err := Build(120, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Boot(); err != nil {
			t.Fatal(err)
		}
		res, err := core.RecoverSession(w2.Help, mem)
		if err != nil {
			t.Fatalf("boundary %d: recovery failed: %v", k, err)
		}
		if got := recoverFingerprint(w2.Help); got != goldens[k] {
			t.Fatalf("boundary %d (after %d ops): recovered world differs from golden\n--- golden ---\n%s\n--- recovered ---\n%s",
				k, res.Ops, goldens[k], got)
		}
		if w2.Help.PanicCount() != 0 {
			t.Fatalf("boundary %d: %d recovered panics", k, w2.Help.PanicCount())
		}
	}

	// Torn points: a few bytes shy of each boundary the final record is
	// incomplete. Recovery must discard it and still hand back a session.
	for k := 1; k < len(bounds); k++ {
		cut := bounds[k] - 3
		if cut <= bounds[0] {
			continue // inside the checkpoint: nothing recoverable yet
		}
		mem := journal.NewMemFS()
		crash := faultfile.CrashAfterBytes(mem, cut)
		runScripted(t, crash, nil)

		w2, err := Build(120, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Boot(); err != nil {
			t.Fatal(err)
		}
		if _, err := core.RecoverSession(w2.Help, mem); err != nil {
			t.Fatalf("torn cut at %d: recovery failed: %v", cut, err)
		}
		// The surviving session is live: it accepts further work.
		win := w2.Help.Windows()
		if len(win) == 0 {
			t.Fatalf("torn cut at %d: recovered an empty world", cut)
		}
		w2.Help.Execute(win[0], "echo still alive")
		if !strings.Contains(w2.Help.Errors().Body.String(), "still alive") {
			t.Fatalf("torn cut at %d: recovered session not functional", cut)
		}
		if w2.Help.PanicCount() != 0 {
			t.Fatalf("torn cut at %d: %d recovered panics", cut, w2.Help.PanicCount())
		}
	}
}
