package sessiond

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/vfs"
	"repro/internal/world"
)

func bodyPath(id int) string { return fmt.Sprintf("%s/%d/body", world.MountRoot, id) }

// One session loading a huge body hits its own cap (MaxSessionBytes)
// with a typed busy error, and the refused load leaves the window's
// prior content intact.
func TestSessionMemCapRefusesLargeLoad(t *testing.T) {
	m, rec := newManager(t, func(c *Config) { c.MaxSessionBytes = 64 * 1024 })
	fs, detach, err := m.AttachSession("a")
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	w := rec.world("a").Help.NewWindow()

	if err := fs.WriteFile(bodyPath(w.ID), bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatalf("small load refused: %v", err)
	}
	err = fs.WriteFile(bodyPath(w.ID), bytes.Repeat([]byte("y"), 32*1024))
	if !errors.Is(err, vfs.ErrBusy) {
		t.Fatalf("oversized load: err = %v, want vfs.ErrBusy", err)
	}
	got, err := fs.ReadFile(bodyPath(w.ID))
	if err != nil || len(got) != 4096 {
		t.Fatalf("refused load damaged the body: len=%d err=%v", len(got), err)
	}
}

// The daemon-wide memory budget refuses a load in one session once the
// total across sessions is spent, stamping the configured retry-after
// hint and counting the refusal.
func TestDaemonMemBudgetRefusesAcrossSessions(t *testing.T) {
	r := obs.New()
	m, rec := newManager(t, func(c *Config) {
		c.MaxBytes = 64 * 1024
		c.RetryAfter = 50 * time.Millisecond
		c.Obs = r
	})
	fsA, detachA, err := m.AttachSession("a")
	if err != nil {
		t.Fatal(err)
	}
	defer detachA()
	wa := rec.world("a").Help.NewWindow()
	if err := fsA.WriteFile(bodyPath(wa.ID), bytes.Repeat([]byte("x"), 10*1024)); err != nil {
		t.Fatalf("first session's load refused: %v", err)
	}
	if got := m.MemBytes(); got < 40*1024 {
		t.Fatalf("daemon.budget.bytes = %d, want >= %d", got, 40*1024)
	}

	fsB, detachB, err := m.AttachSession("b")
	if err != nil {
		t.Fatalf("attach under budget refused: %v", err)
	}
	defer detachB()
	wb := rec.world("b").Help.NewWindow()
	err = fsB.WriteFile(bodyPath(wb.ID), bytes.Repeat([]byte("y"), 10*1024))
	if !errors.Is(err, vfs.ErrBusy) {
		t.Fatalf("over-budget load: err = %v, want vfs.ErrBusy", err)
	}
	if d, ok := vfs.RetryAfter(err); !ok || d != 50*time.Millisecond {
		t.Fatalf("retry-after hint = %v,%v, want 50ms", d, ok)
	}
	if r.Counter("daemon.budget.refused.mem").Load() == 0 {
		t.Fatal("daemon.budget.refused.mem not counted")
	}
	assertLimitEvent(t, m)
}

// assertLimitEvent fails unless the daemon stream retains a budget
// refusal's "limit" event.
func assertLimitEvent(t *testing.T, m *Manager) {
	t.Helper()
	for _, ev := range m.Bus().History() {
		if ev.Kind == "limit" {
			return
		}
	}
	t.Errorf("no limit event on the daemon stream: %v", m.Bus().History())
}

// While the daemon's memory budget is spent, brand-new sessions are
// refused admission (spawning a world costs memory) but attaching to an
// existing session still works.
func TestAttachRefusedWhileMemBudgetSpent(t *testing.T) {
	r := obs.New()
	m, rec := newManager(t, func(c *Config) {
		c.MaxBytes = 4000
		c.Obs = r
	})
	fsA, detachA, err := m.AttachSession("a")
	if err != nil {
		t.Fatal(err)
	}
	defer detachA()
	w := rec.world("a").Help.NewWindow()
	// 1023 runes stays under the gate-consult threshold, but its 4092
	// accounted bytes exceed the 4000-byte daemon budget.
	if err := fsA.WriteFile(bodyPath(w.ID), bytes.Repeat([]byte("x"), 1023)); err != nil {
		t.Fatalf("sub-threshold load refused: %v", err)
	}

	_, _, err = m.AttachSession("b")
	if !errors.Is(err, vfs.ErrBusy) {
		t.Fatalf("new-session attach over budget: err = %v, want vfs.ErrBusy", err)
	}
	if r.Counter("daemon.budget.refused.attach").Load() == 0 {
		t.Fatal("daemon.budget.refused.attach not counted")
	}
	// The resident session is still reachable.
	if _, detach2, err := m.AttachSession("a"); err != nil {
		t.Fatalf("re-attach to resident session refused: %v", err)
	} else {
		detach2()
	}
}

// The daemon-wide command budget refuses a launch in one session while
// another session holds the last slot, and admits it again once the
// slot frees.
func TestDaemonProcBudgetRefusesAcrossSessions(t *testing.T) {
	r := obs.New()
	m, rec := newManager(t, func(c *Config) {
		c.MaxTotalProcs = 1
		c.Obs = r
	})
	if _, detach, err := m.AttachSession("a"); err != nil {
		t.Fatal(err)
	} else {
		defer detach()
	}
	if _, detach, err := m.AttachSession("b"); err != nil {
		t.Fatal(err)
	} else {
		defer detach()
	}

	blockA, blockB := make(chan struct{}), make(chan struct{})
	closeOnce := func(ch chan struct{}) {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	defer closeOnce(blockA)
	defer closeOnce(blockB)
	ha, hb := rec.world("a").Help, rec.world("b").Help
	rec.world("a").Shell.Register("blocknow", func(ctx *shell.Context, args []string) int {
		<-blockA
		return 0
	})
	rec.world("b").Shell.Register("blocknow", func(ctx *shell.Context, args []string) int {
		<-blockB
		return 0
	})
	winA, winB := ha.NewWindow(), hb.NewWindow()

	ha.Start(winA, "blocknow")
	waitUntil(t, "session a's command to start", func() bool { return ha.ProcCount() == 1 })

	// Session b's launch is refused: the daemon budget is spent.
	hb.Start(winB, "blocknow")
	waitUntil(t, "the refusal to be counted", func() bool {
		return r.Counter("daemon.budget.refused.proc").Load() > 0
	})
	if n := hb.ProcCount(); n != 0 {
		t.Fatalf("refused command still started: ProcCount = %d", n)
	}
	assertLimitEvent(t, m)

	// Free the slot; session b is admitted again.
	closeOnce(blockA)
	waitUntil(t, "session a's command to finish", func() bool { return ha.ProcCount() == 0 })
	hb.Start(winB, "blocknow")
	waitUntil(t, "session b's command to start", func() bool { return hb.ProcCount() == 1 })
}

// A hosted session's /mnt/help/stats carries the daemon's own
// instruments — the budget gauges and refusal counters live on the
// Manager's registry, and the manual documents them as readable from
// any session's stats file.
func TestSessionStatsIncludesDaemonBudget(t *testing.T) {
	r := obs.New()
	m, _ := newManager(t, func(c *Config) {
		c.MaxBytes = 64 * 1024
		c.Obs = r
	})
	fs, detach, err := m.AttachSession("a")
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	got, err := fs.ReadFile(world.MountRoot + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"daemon.budget.sessions 1", "daemon.budget.bytes", "daemon.budget.procs"} {
		if !bytes.Contains(got, []byte(key)) {
			t.Errorf("session stats missing daemon line %q:\n%s", key, got)
		}
	}
	// The session's own instruments still serve from the same file.
	if !bytes.Contains(got, []byte("core.")) {
		t.Errorf("session stats lost the session's own lines:\n%s", got)
	}
}
