package repro_test

// One benchmark per evaluation table (see EXPERIMENTS.md), plus end-to-end
// benches for the expensive paths: world provisioning, screen rendering,
// full-session replay, and the /mnt/help file interface.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/notify"
	"repro/internal/session"
	"repro/internal/sessiond"
	"repro/internal/srvnet"
	"repro/internal/vfs"
	"repro/internal/world"
)

// BenchmarkWorldBuild provisions the paper's whole environment: sources,
// tools, mailbox, processes, pre-built tree.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(120, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoot measures Build plus opening the Figure 4 screen.
func BenchmarkBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := world.Build(120, 60)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Boot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReplay (T1) runs the complete Figures 4-12 debugging
// session through the live event pipeline.
func BenchmarkSessionReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := session.New(120, 60)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunDebugSession(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInteractionTable (T2) prices the task suite under all models.
func BenchmarkInteractionTable(b *testing.B) {
	tasks := baseline.StandardTasks()
	for i := 0; i < b.N; i++ {
		costs := baseline.Table(tasks)
		if len(costs) == 0 {
			b.Fatal("no costs")
		}
	}
}

// BenchmarkUsesVsGrep (T3) runs both the semantic and the textual search
// over the paper's source tree.
func BenchmarkUsesVsGrep(b *testing.B) {
	w, err := world.Build(80, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.UsesVsGrep(w.FS, w.Shell, world.SrcDir, "n"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrepScan isolates the textual half of T3.
func BenchmarkGrepScan(b *testing.B) {
	w, err := world.Build(80, 24)
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Dir = world.SrcDir
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		w.Shell.Run(ctx, "grep -n n *.c")
	}
}

// BenchmarkPlacement (T5) runs the placement heuristic for a filling
// column.
func BenchmarkPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := baseline.PlacementHelp(16, 48, 30)
		if res.NewestSpan < 1 {
			b.Fatal("placement degenerated")
		}
	}
}

// BenchmarkHelpfsNewWindow (T6) creates windows through the file
// interface, as client programs do.
func BenchmarkHelpfsNewWindow(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := w.FS.Open(world.MountRoot+"/new/ctl", vfs.OREAD)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 16)
		n, _ := f.Read(buf)
		f.Close()
		// Steady state: delete the window again so the table and the
		// index stay small.
		id := strings.TrimSpace(string(buf[:n]))
		if err := w.FS.WriteFile(world.MountRoot+"/"+id+"/ctl", []byte("delete\n")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHelpfsBodyRead (T6) reads a window body through /mnt/help.
func BenchmarkHelpfsBodyRead(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	win := w.Help.NewWindow()
	win.Body.SetString(strings.Repeat("text line\n", 500))
	path := fmt.Sprintf("%s/%d/body", world.MountRoot, win.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.FS.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHelpfsBodyAppend (T6) appends through bodyapp, the path the
// decl script's output takes.
func BenchmarkHelpfsBodyAppend(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	win := w.Help.NewWindow()
	path := fmt.Sprintf("%s/%d/bodyapp", world.MountRoot, win.ID)
	line := []byte("appended output line\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := w.FS.Open(path, vfs.OWRITE)
		if err != nil {
			b.Fatal(err)
		}
		f.Write(line)
		f.Close()
		if win.Body.Len() > 1<<20 {
			win.Body.SetString("")
		}
	}
}

// BenchmarkRenderScreen measures a full redraw of a busy screen.
func BenchmarkRenderScreen(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		b.Fatal(err)
	}
	for _, f := range []string{"help.c", "exec.c", "text.c"} {
		if _, err := w.Help.OpenFile(world.SrcDir+"/"+f, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Help.Render()
	}
}

// BenchmarkRenderScreenDamaged measures a redraw after a one-rune edit:
// the incremental path repaints only the damaged column, so this sits
// between the all-clean fast path and a full repaint.
func BenchmarkRenderScreenDamaged(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		b.Fatal(err)
	}
	var win *core.Window
	for _, f := range []string{"help.c", "exec.c", "text.c"} {
		if win, err = w.Help.OpenFile(world.SrcDir+"/"+f, ""); err != nil {
			b.Fatal(err)
		}
	}
	w.Help.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.Body.Insert(0, "x")
		win.Body.Delete(0, 1)
		w.Help.Render()
	}
}

// BenchmarkOpenFile measures Open (window creation + placement + read).
func BenchmarkOpenFile(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win, err := w.Help.OpenFile(world.SrcDir+"/exec.c", "213")
		if err != nil {
			b.Fatal(err)
		}
		w.Help.CloseWindow(win)
	}
}

// BenchmarkExecuteExternalRoundTrip measures a synchronous Execute of an
// external command. Renamed from BenchmarkExecuteExternal when the core
// became an actor: an external command now runs in its own goroutine and
// Execute waits for launch, queue drain, and reap, so the number measures
// a scheduler round trip, not the old in-loop call, and is not comparable
// against the pre-actor baseline.
func BenchmarkExecuteExternalRoundTrip(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	win, err := w.Help.OpenFile(world.SrcDir+"/exec.c", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Help.Execute(win, "echo bench")
		if i%256 == 0 {
			w.Help.Errors().Body.SetString("")
		}
	}
}

// BenchmarkExecuteWindows measures one built-in (Snarf, which changes
// nothing on a repeat) in sessions of 10, 100 and 1,000 windows, with
// and without a journal. What grows with the window count is the sweep
// that ends every interaction, so the spread across sizes is its
// per-window cost.
func BenchmarkExecuteWindows(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		for _, journaled := range []bool{false, true} {
			b.Run(fmt.Sprintf("windows=%d/journal=%v", n, journaled), func(b *testing.B) {
				w, err := world.Build(120, 60)
				if err != nil {
					b.Fatal(err)
				}
				var win *core.Window
				for i := 0; i < n; i++ {
					win = w.Help.NewWindow()
				}
				if journaled {
					jw, err := journal.Open(journal.NewMemFS(), journal.Config{})
					if err != nil {
						b.Fatal(err)
					}
					defer jw.Close()
					w.Help.AttachJournal(jw, 1<<20)
				}
				w.Help.Execute(win, "Snarf")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Help.Execute(win, "Snarf")
				}
			})
		}
	}
}

// BenchmarkGestureDispatch measures one click through the whole event
// pipeline including re-render.
func BenchmarkGestureDispatch(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	win, err := w.Help.OpenFile(world.SrcDir+"/exec.c", "101")
	if err != nil {
		b.Fatal(err)
	}
	w.Help.Render()
	p, ok := w.Help.FindBody(win, "lookup")
	if !ok {
		b.Fatal("target not visible")
	}
	evs := event.Click(event.Left, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Help.HandleAll(evs)
	}
}

// BenchmarkConnectivityCount (T7) measures the token counting over a
// session screen.
func BenchmarkConnectivityCount(b *testing.B) {
	s, err := session.New(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	screen := s.Steps[0].Screen
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, line := range strings.Split(screen, "\n") {
			n += len(strings.Fields(line))
		}
		if n == 0 {
			b.Fatal("empty screen")
		}
	}
}

// BenchmarkStackTool measures the db stack pipeline: script, adb, window
// creation through the file interface. Each run's stack window is closed
// again, so the session does not grow with b.N and neither does ns/op.
func BenchmarkStackTool(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		b.Fatal(err)
	}
	msg := w.Help.NewWindow()
	msg.Body.SetString("help 176153: user TLB miss\n")
	off := strings.Index(msg.Body.String(), "176153")
	msg.SetSelection(core.SubBody, off+1, off+1)
	w.Help.SetCurrent(msg, core.SubBody)
	stf := w.Help.WindowByName("/help/db/stf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Help.Execute(stf, "stack")
		wins := w.Help.Windows()
		w.Help.CloseWindow(wins[len(wins)-1])
	}
}

// BenchmarkSrvnetRoundTrip measures one read over the TCP file service:
// the latency a remote tool pays per operation in the multi-machine
// arrangement.
func BenchmarkSrvnetRoundTrip(b *testing.B) {
	fs := vfs.New()
	if err := fs.MkdirAll("/d"); err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", []byte(strings.Repeat("data ", 200))); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go srvnet.NewServer(fs).Serve(l)
	c, err := srvnet.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadFile("/d/f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireThroughput measures remote read throughput in the three
// regimes of the PR 7 wire path over TCP loopback: serial (one round
// trip per op, the old protocol's ceiling), pipelined (batches of reads
// in flight at once, matched by sequence number), and cached
// (generation-keyed hits that never touch the wire). The acceptance bar
// is pipelined ≥ 5x serial ops/sec.
func BenchmarkWireThroughput(b *testing.B) {
	setup := func(b *testing.B) *srvnet.Client {
		b.Helper()
		fs := vfs.New()
		if err := fs.MkdirAll("/d"); err != nil {
			b.Fatal(err)
		}
		if err := fs.WriteFile("/d/f", []byte(strings.Repeat("data ", 200))); err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		go srvnet.NewServer(fs).Serve(l)
		c, err := srvnet.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}

	b.Run("serial", func(b *testing.B) {
		c := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ReadFile("/d/f"); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("pipelined", func(b *testing.B) {
		c := setup(b)
		const window = 64
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := window
			if rem := b.N - done; rem < n {
				n = rem
			}
			batch := c.NewBatch()
			futs := make([]*srvnet.Future, n)
			for i := 0; i < n; i++ {
				futs[i] = batch.ReadFile("/d/f")
			}
			if err := batch.Flush(); err != nil {
				b.Fatal(err)
			}
			for _, f := range futs {
				if _, err := f.Data(); err != nil {
					b.Fatal(err)
				}
			}
			done += n
		}
	})

	b.Run("cached", func(b *testing.B) {
		c := setup(b)
		c.SetCache(true)
		if _, err := c.ReadFile("/d/f"); err != nil { // prime
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ReadFile("/d/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalAppend measures the cost of journaling one operation:
// encode, enqueue, and the amortized group-commit write. This is the
// per-mutation tax the event loop pays while a session is journaled.
func BenchmarkJournalAppend(b *testing.B) {
	b.ReportAllocs()
	mem := journal.NewMemFS()
	jw, err := journal.Open(mem, journal.Config{Fsync: journal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	op := &journal.Op{Kind: journal.OpSplice, Win: 3, Sub: 1, P0: 120, P1: 4, Str1: "inserted text line\n"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Append(op)
	}
	b.StopTimer()
	if err := jw.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecoveryReplay measures bringing a crashed session back:
// load the journal, restore the checkpoint, replay the op tail into a
// freshly booted world.
func BenchmarkRecoveryReplay(b *testing.B) {
	// Record a representative session to replay.
	mem := journal.NewMemFS()
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		b.Fatal(err)
	}
	jw, err := journal.Open(mem, journal.Config{})
	if err != nil {
		b.Fatal(err)
	}
	w.Help.AttachJournal(jw, 1<<20)
	for _, f := range []string{"help.c", "exec.c", "text.c"} {
		win, err := w.Help.OpenFile(world.SrcDir+"/"+f, "")
		if err != nil {
			b.Fatal(err)
		}
		w.Help.Execute(win, "Snarf")
		w.Help.Execute(win, "echo bench")
		win.Body.Insert(0, "edited ")
		win.Body.Commit()
	}
	if err := jw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w2, err := world.Build(120, 60)
		if err != nil {
			b.Fatal(err)
		}
		if err := w2.Boot(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.RecoverSession(w2.Help, mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalOverhead prices journaling on the two hot paths the
// acceptance budget names: the damaged-screen redraw and the bodyapp
// append. "on" journals into an in-memory medium with the default
// group-commit policy; "off" is the unjournaled baseline. Budget: <5%.
func BenchmarkJournalOverhead(b *testing.B) {
	for _, mode := range []string{"render-off", "render-on", "append-off", "append-on"} {
		b.Run(mode, func(b *testing.B) {
			w, err := world.Build(120, 60)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Boot(); err != nil {
				b.Fatal(err)
			}
			journaled := strings.HasSuffix(mode, "-on")
			if journaled {
				jw, err := journal.Open(journal.NewMemFS(), journal.Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer jw.Close()
				w.Help.AttachJournal(jw, 1<<20)
			}
			if strings.HasPrefix(mode, "render") {
				var win *core.Window
				for _, f := range []string{"help.c", "exec.c", "text.c"} {
					if win, err = w.Help.OpenFile(world.SrcDir+"/"+f, ""); err != nil {
						b.Fatal(err)
					}
				}
				w.Help.Render()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					win.Body.Insert(0, "x")
					win.Body.Delete(0, 1)
					w.Help.Render()
				}
				return
			}
			win := w.Help.NewWindow()
			path := fmt.Sprintf("%s/%d/bodyapp", world.MountRoot, win.ID)
			line := []byte("appended output line\n")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := w.FS.Open(path, vfs.OWRITE)
				if err != nil {
					b.Fatal(err)
				}
				f.Write(line)
				f.Close()
				if win.Body.Len() > 1<<20 {
					win.Body.SetString("")
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures what the observability layer costs on
// the hottest path, the damaged-screen redraw: "on" is the default
// (registry attached, every render counted, timed, and bucketed), "off"
// detaches the registry with SetObs(nil), which removes even the clock
// reads. The acceptance budget for on vs off is <5%.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		b.Run(mode, func(b *testing.B) {
			w, err := world.Build(120, 60)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Boot(); err != nil {
				b.Fatal(err)
			}
			if mode == "off" {
				w.Help.SetObs(nil)
			}
			var win *core.Window
			for _, f := range []string{"help.c", "exec.c", "text.c"} {
				if win, err = w.Help.OpenFile(world.SrcDir+"/"+f, ""); err != nil {
					b.Fatal(err)
				}
			}
			w.Help.Render()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Body.Insert(0, "x")
				win.Body.Delete(0, 1)
				w.Help.Render()
			}
		})
	}
}

// BenchmarkConcurrentServe measures the file interface under contention:
// parallel readers of /mnt/help/index while a live external command is
// registered — the "core off the critical path" number. Before the actor
// refactor this workload was impossible: a running command held the whole
// session.
func BenchmarkConcurrentServe(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	win, err := w.Help.OpenFile(world.SrcDir+"/exec.c", "")
	if err != nil {
		b.Fatal(err)
	}
	w.Help.Start(win, "sleep 600")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := w.FS.ReadFile(world.MountRoot + "/index"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	w.Help.Execute(win, "Kill")
	w.Help.WaitIdle()
}

// BenchmarkQueueThroughput measures the apply queue itself: the cost of
// pushing a mutation from a command goroutine through the drainer,
// amortized over drain batches.
func BenchmarkQueueThroughput(b *testing.B) {
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Help.Apply(func() {})
	}
	w.Help.WaitIdle()
}

// BenchmarkSessionChurn measures the daemon's full session lifecycle:
// stamp a world from the shared template on first attach, serve one
// namespace read, detach, and reap — the steady-state cost of a client
// population that comes and goes (see docs/ARCHITECTURE.md,
// "Multi-session daemon").
func BenchmarkSessionChurn(b *testing.B) {
	tmpl, err := world.NewTemplate()
	if err != nil {
		b.Fatal(err)
	}
	m := sessiond.NewManager(sessiond.Config{
		Width:       40,
		Height:      12,
		MaxSessions: 16,
		TTL:         time.Nanosecond,
		Build: func(name string, w, h int) (*world.World, error) {
			return tmpl.NewSession(w, h)
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, detach, err := m.AttachSession(fmt.Sprintf("churn-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.ReadFile(world.MountRoot + "/index"); err != nil {
			b.Fatal(err)
		}
		detach()
		// The background reaper may win the race for the reap; either
		// way the table must be empty before the next spin.
		for m.SessionCount() > 0 {
			m.ReapIdle()
		}
	}
}

// BenchmarkManySessionsServe holds 1024 live sessions in one daemon and
// measures namespace reads spread across all of them — the per-request
// cost of a CPU server hosting a whole department, and the check that
// the session table imposes no cross-session serialization.
func BenchmarkManySessionsServe(b *testing.B) {
	const sessions = 1024
	tmpl, err := world.NewTemplate()
	if err != nil {
		b.Fatal(err)
	}
	m := sessiond.NewManager(sessiond.Config{
		Width:       40,
		Height:      12,
		MaxSessions: sessions,
		Build: func(name string, w, h int) (*world.World, error) {
			return tmpl.NewSession(w, h)
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	fss := make([]*vfs.FS, sessions)
	detaches := make([]func(), sessions)
	for i := range fss {
		fs, detach, err := m.AttachSession(fmt.Sprintf("s%04d", i))
		if err != nil {
			b.Fatal(err)
		}
		fss[i], detaches[i] = fs, detach
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 37 // spread goroutines across the table
		for pb.Next() {
			if _, err := fss[i%sessions].ReadFile(world.MountRoot + "/index"); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	for _, d := range detaches {
		d()
	}
}

// BenchmarkReplayThroughput measures the overload-governed daemon end to
// end: a fleet of loadgen users replaying the default editing trace over
// srvnet against a budgeted multi-session daemon, full speed (no think
// time). One b.N iteration is one trace repetition per user; the
// reported ops/s is the wire-operation rate the fleet sustained. This is
// the PR 9 regression gate for the whole stack — admission control, wire
// backpressure, and the mux path together.
func BenchmarkReplayThroughput(b *testing.B) {
	tmpl, err := world.NewTemplate()
	if err != nil {
		b.Fatal(err)
	}
	m := sessiond.NewManager(sessiond.Config{
		Width:       60,
		Height:      20,
		MaxSessions: 16,
		MaxBytes:    256 << 20,
		Build: func(name string, w, h int) (*world.World, error) {
			return tmpl.NewSession(w, h)
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	srv := srvnet.NewMuxServer(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	const users = 8
	b.ReportAllocs()
	b.ResetTimer()
	st, err := loadgen.Replay(loadgen.Config{
		Addr:       l.Addr().String(),
		Users:      users,
		Sessions:   users / 2,
		Iterations: b.N,
		Seed:       42,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Errors > 0 {
		b.Fatalf("replay errors: %d, first: %v", st.Errors, st.FirstError)
	}
	if st.SeqRegressions > 0 {
		b.Fatalf("notify sequence regressed %d times", st.SeqRegressions)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(st.Ops)/sec, "ops/s")
	}
}

// BenchmarkEventFanout measures the notify bus with a thousand parked
// subscribers: the per-publish cost the core actor pays at a sweep
// point. The history laps readers that fall behind, so a publish never
// blocks on a reader — the number here is pure fan-out, not consumer
// speed.
func BenchmarkEventFanout(b *testing.B) {
	bus := notify.New()
	subs := make([]*notify.Sub, 1000)
	for i := range subs {
		subs[i] = bus.Subscribe(0, 0)
	}
	defer func() {
		for _, s := range subs {
			s.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(1, "body", "gen 1")
	}
}

// BenchmarkPushInvalidatedRead measures the PR 8 cache regime: reads
// served from the generation-keyed cache while a push-invalidation
// stream keeps it honest. cached-hit is the steady state (zero wire
// traffic); invalidate-cycle is the full loop — a remote write, the
// pushed invalidation, and the first fresh read — i.e. how stale a
// push-invalidated cache can ever be.
func BenchmarkPushInvalidatedRead(b *testing.B) {
	w, err := world.Build(100, 40)
	if err != nil {
		b.Fatal(err)
	}
	win := w.Help.NewWindow()
	win.Body.SetString("v0")
	body := world.MountRoot + "/1/body"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go srvnet.NewServer(w.FS).Serve(l)
	reader, err := srvnet.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer reader.Close()
	reader.SetCache(true)
	stop := reader.StartPushInval(world.MountRoot)
	defer stop()
	writer, err := srvnet.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer writer.Close()

	b.Run("cached-hit", func(b *testing.B) {
		if _, err := reader.ReadFile(body); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reader.ReadFile(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("invalidate-cycle", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			payload := []byte(fmt.Sprintf("v%d", i+1))
			if err := writer.WriteFile(body, payload); err != nil {
				b.Fatal(err)
			}
			for {
				data, err := reader.ReadFile(body)
				if err != nil {
					b.Fatal(err)
				}
				if bytes.Equal(data, payload) {
					break
				}
			}
		}
	})
}

// ---- PR 10: gigabyte-class bodies behind the same Buffer API ----

// largeBodyBytes sizes the synthetic log the paged-text benchmarks open:
// big enough (100 MB) that materializing it would dwarf the resident
// budget, small enough to synthesize per run.
const largeBodyBytes = 100 << 20

// largeBudget is the paged residency cap the benchmarks run under, and
// largeMemCeiling is the assertion threshold: cache cap plus one
// in-flight page plus slack for the rest of the session's windows.
const (
	largeBudget     = 8 << 20
	largeMemCeiling = 3 * largeBudget
)

// buildLargeWorld provisions a world holding a 100 MB line-structured
// log, the body every following benchmark opens paged.
func buildLargeWorld(b *testing.B) (*world.World, string) {
	b.Helper()
	w, err := world.Build(120, 60)
	if err != nil {
		b.Fatal(err)
	}
	w.Help.SetLimits(core.Limits{MaxResident: largeBudget})
	const name = "/usr/rob/lib/huge.log"
	line := []byte("0000000 a log line with several words to scan per visit\n")
	body := bytes.Repeat(line, largeBodyBytes/len(line)+1)[:largeBodyBytes]
	body[len(body)-1] = '\n'
	if err := w.FS.WriteFile(name, body); err != nil {
		b.Fatal(err)
	}
	return w, name
}

// assertBounded fails the benchmark if the session's resident buffer
// bytes ever approach the size of the file: the whole point of the paged
// engine is that a 100 MB body costs a bounded working set.
func assertBounded(b *testing.B, w *world.World) {
	b.Helper()
	if mem := w.Help.MemBytes(); mem > largeMemCeiling {
		b.Fatalf("resident %d bytes exceeds ceiling %d (budget %d)", mem, largeMemCeiling, largeBudget)
	}
}

// BenchmarkOpenLarge opens the 100 MB body. The open streams one byte
// scan to build the page/newline index but materializes nothing, so the
// reported MB/s is the index build and memory stays at the budget.
func BenchmarkOpenLarge(b *testing.B) {
	w, name := buildLargeWorld(b)
	b.SetBytes(largeBodyBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win, err := w.Help.OpenFile(name, "")
		if err != nil {
			b.Fatal(err)
		}
		if !win.Body.Paged() {
			b.Fatal("large body did not open paged")
		}
		assertBounded(b, w)
		w.Help.CloseWindow(win)
	}
}

// BenchmarkScrollLarge jumps around the whole file, pricing the line
// lookup plus the page faults needed to show each landing spot.
func BenchmarkScrollLarge(b *testing.B) {
	w, name := buildLargeWorld(b)
	win, err := w.Help.OpenFile(name, "")
	if err != nil {
		b.Fatal(err)
	}
	lines := win.Body.NLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln := (i*7919)%lines + 1
		org := win.Body.LineStart(ln)
		// Paint one row's worth of text at the landing spot.
		if s := win.Body.Slice(org, 80); len(s) == 0 && ln < lines {
			b.Fatal("empty slice inside body")
		}
	}
	b.StopTimer()
	assertBounded(b, w)
}

// BenchmarkEditLarge splices single characters at spots all over the
// file and undoes each one, the piece-table edit path under a body that
// could never be materialized.
func BenchmarkEditLarge(b *testing.B) {
	w, name := buildLargeWorld(b)
	win, err := w.Help.OpenFile(name, "")
	if err != nil {
		b.Fatal(err)
	}
	n := win.Body.Len()
	// A fixed cycle of offsets: each spot's first edit splits a piece,
	// later visits reuse the boundary, so the piece list stays small and
	// the number prices the steady-state splice, not list growth.
	var offs [256]int
	for j := range offs {
		offs[j] = (j * 7919 * 1031) % n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.Body.Insert(offs[i%len(offs)], "x")
		if !win.Body.Undo() {
			b.Fatal("undo failed")
		}
	}
	b.StopTimer()
	assertBounded(b, w)
}
