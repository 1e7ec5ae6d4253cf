package sessiond

import (
	"strings"
	"testing"

	"repro/internal/world"
)

// TestDaemonStreamCoversLifecycle: the daemon-level event stream
// carries manager lifecycle transitions and the per-session events,
// the latter prefixed "session/window" so one subscriber can follow
// every session at once.
func TestDaemonStreamCoversLifecycle(t *testing.T) {
	m, rec := newManager(t, nil)
	sub := m.Bus().Subscribe(0, 0)
	defer sub.Close()

	fsA, detach, err := m.AttachSession("a")
	if err != nil {
		t.Fatal(err)
	}
	// The daemon stream is served inside every session's namespace.
	if _, err := fsA.Stat(world.MountRoot + "/daemonlog"); err != nil {
		t.Errorf("daemonlog not in session namespace: %v", err)
	}
	// Session activity is forwarded: a window created inside "a"
	// becomes a daemon-stream event attributed to a/1.
	rec.world("a").Help.NewWindow()
	detach()

	seen := map[string]bool{}
	forwarded := false
	waitUntil(t, "daemon stream events", func() bool {
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			seen[ev.Kind] = true
			if ev.Kind == "new" && strings.HasPrefix(ev.Detail, "a/1") {
				forwarded = true
			}
		}
		return seen["spawn"] && seen["attach"] && seen["detach"] && forwarded
	})
}

// TestDaemonStreamReportsCrashAndDrain: containment and shutdown are
// visible on the same stream.
func TestDaemonStreamReportsCrashAndDrain(t *testing.T) {
	m, rec := newManager(t, nil)
	sub := m.Bus().Subscribe(0, 0)
	defer sub.Close()

	if _, _, err := m.AttachSession("a"); err != nil {
		t.Fatal(err)
	}
	// Kill the session's serving goroutine the contained way.
	m.markCrashed("a", "test-induced")
	_ = rec

	seen := map[string]bool{}
	waitUntil(t, "crash event", func() bool {
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			seen[ev.Kind] = true
		}
		return seen["crash"]
	})
}
