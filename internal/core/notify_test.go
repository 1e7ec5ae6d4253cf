package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/notify"
)

// pings counts completed echo runs that reached the Errors window.
func pings(h *Help) int {
	return strings.Count(h.ErrorsText(), "ping\n")
}

// TestWatchRerunsOnBodyChange: Watch runs its command once up front,
// then again when the watched window's body changes — driven by the
// notify bus, not polling.
func TestWatchRerunsOnBodyChange(t *testing.T) {
	h, fs := world(t)
	w, err := h.OpenFile("/usr/rob/lib/profile", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "Watch echo ping")
	waitFor(t, "first run", func() bool { return pings(h) == 1 })

	// Get! reloads the file from disk: a body change swept at the end
	// of the interaction, published as a body event.
	fs.WriteFile("/usr/rob/lib/profile", []byte("changed contents\n"))
	h.Execute(w, "Get!")
	waitFor(t, "rerun after body change", func() bool { return pings(h) >= 2 })

	// A command on the same window that does NOT touch the body must
	// not retrigger the watcher.
	before := pings(h)
	h.Execute(w, "echo other")
	h.WaitIdleFor(time.Second)
	if got := pings(h); got != before {
		t.Errorf("pings after no-op exec = %d, want %d", got, before)
	}

	h.KillAll()
	waitFor(t, "watcher killed", func() bool { return len(h.Procs()) == 0 })
}

// TestWatchKillUnblocksParked: Kill must wake a watcher parked on its
// subscription between runs, not just set a flag it never checks.
func TestWatchKillUnblocksParked(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/lib/profile", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "Watch echo ping")
	waitFor(t, "first run", func() bool { return pings(h) == 1 })
	waitFor(t, "watcher listed", func() bool {
		for _, p := range h.Procs() {
			if strings.HasPrefix(p.Name, "Watch") {
				return true
			}
		}
		return false
	})
	h.KillAll()
	waitFor(t, "watcher exited", func() bool { return len(h.Procs()) == 0 })
}

// TestWatchExitsOnWindowClose: closing the watched window publishes a
// del event; the watcher hears it and exits on its own.
func TestWatchExitsOnWindowClose(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/lib/profile", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "Watch echo ping")
	waitFor(t, "first run", func() bool { return pings(h) == 1 })
	h.CloseWindow(w)
	waitFor(t, "watcher exited on del", func() bool { return len(h.Procs()) == 0 })
}

// TestWatchRefusedAtProcLimitClosesSubscription: watchCmd subscribes
// before calling startProc; when startProc refuses at the proc cap the
// run fn (whose defer closes the subscription) never executes, so the
// refusal path must close it itself — a leaked subscription sits in the
// bus forever, absorbing every future publish into a ring nobody
// drains.
func TestWatchRefusedAtProcLimitClosesSubscription(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/lib/profile", "")
	if err != nil {
		t.Fatal(err)
	}
	h.SetLimits(Limits{MaxProcs: 1})
	// The first watcher parks on its subscription, filling the one slot.
	h.Execute(w, "Watch echo ping")
	waitFor(t, "first watcher running", func() bool { return pings(h) == 1 })
	subs := h.Obs.StatsMap()["notify.subs"]

	h.Execute(w, "Watch echo pong")
	waitFor(t, "refusal in Errors", func() bool {
		return strings.Contains(h.ErrorsText(), "refused")
	})
	if got := h.Obs.StatsMap()["notify.subs"]; got != subs {
		t.Errorf("notify.subs = %d after refused Watch, want %d (subscription leaked)", got, subs)
	}
	h.KillAll()
	waitFor(t, "watcher killed", func() bool { return len(h.Procs()) == 0 })
}

// TestSlowSubscriberNeverBacksUpCore: a subscriber that stops reading
// is lapped by the bus history — gap-marked, resyncable — while the
// core's apply queue stays empty: event fan-out never sits on the
// interaction path.
func TestSlowSubscriberNeverBacksUpCore(t *testing.T) {
	h, fs := world(t)
	w, err := h.OpenFile("/usr/rob/lib/profile", "")
	if err != nil {
		t.Fatal(err)
	}
	// Never read while the session publishes past the whole history.
	sub := h.Notify.Subscribe(0, 0)
	defer sub.Close()

	for i, end := 0, h.Notify.Seq()+notify.DefaultHistory+20; h.Notify.Seq() < end; i++ {
		fs.WriteFile("/usr/rob/lib/profile", []byte(strings.Repeat("x", i%64+1)+"\n"))
		h.Execute(w, "Get!")
	}
	if depth := h.Obs.StatsMap()["core.queue.depth"]; depth != 0 {
		t.Errorf("core.queue.depth = %d with a stalled subscriber, want 0", depth)
	}

	// The stalled reader resyncs: one gap marker, then a contiguous
	// newest tail.
	ev, ok := sub.TryNext()
	if !ok || ev.Kind != notify.KindGap {
		t.Fatalf("first drained event = %+v ok=%v, want gap marker", ev, ok)
	}
	var last uint64
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Kind == notify.KindGap {
			t.Fatalf("second gap marker after resync: %+v", ev)
		}
		if last != 0 && ev.Seq != last+1 {
			t.Fatalf("tail not contiguous: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	if last == 0 {
		t.Fatal("no events retained after the gap")
	}
	// And from here on it is a live subscriber again.
	seq := h.Notify.Publish(w.ID, "body", "gen 99")
	ev, ok = sub.TryNext()
	if !ok || ev.Seq != seq {
		t.Errorf("post-resync event = %+v ok=%v, want seq %d", ev, ok, seq)
	}
}
