package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/srvnet"
	"repro/internal/world"
)

// The large workload opens a big log paged in a journaled session. Its
// time lands where edit and remote never go: paged text, vfs range
// reads, parallel grep, the srvnet readahead window, and the journal
// turning the whole paged body into one string (on open, and on every
// checkpoint while the log is open). It uses text and srvnet
// differently from the other two: a piece table instead of a gap
// buffer, windowed readahead instead of whole-file reads.

const (
	logDir  = "/sys/log" // sealed, like the daemon template's shared roots
	logPath = logDir + "/big.log"
	logCmds = "/usr/rob/lib/logcmds"
	planted = "ZQXPLANTED" // never produced by the lowercase filler
	grepLog = "grep -n " + planted + " " + logPath

	// viewChunk is the remote viewer's ReadFileAt size, 64 chunks to a
	// 1 MiB readahead window. The viewer's p90 spread 0.24 over six
	// seeds with 64 KiB chunks and 0.13 with 16 KiB chunks.
	viewChunk = 16 << 10

	// memCeiling bounds the session's resident buffer bytes at a small
	// multiple of the default 8 MiB residency budget.
	memCeiling = 3 * core.DefaultMaxResident

	// largeVisitsPer10s sizes the fixed sequence (see
	// editRoundsPerSecond): one visit opens the log, works in it and
	// closes it again.
	largeVisitsPer10s = 5
	jumpsPerVisit     = 100
)

// A visit's shape has no model in the repository to follow: no session
// of the paper or of loadgen reads a big file. Its counts are chosen so
// that every class has the samples its percentile needs and so that the
// journal costs recur in every run. One open per visit gives 10 timed
// opens at 20 s. Each scroll-bar jump is followed by a scroll and a
// click, the gestures a reader makes on landing, and by two viewer
// chunks: 2000 chunks at 20 s for a p90, over 3 MiB a visit, so the
// viewer's readahead window slides over half the log in a run. With
// a typing episode every fourth jump a visit writes about 950 journal
// records, so a checkpoint comes about every second visit: 4 a run
// at 20 s. Four greps a visit give 40 for a p50.

type lKind int

const (
	lOpen   lKind = iota // open the log until first paint
	lJump                // middle-click the scroll bar: a proportional jump
	lScroll              // left or right click in the scroll bar
	lClick               // left click in the body
	lType                // click, type a word at the landing spot, Undo it
	lGrep                // middle-click the grep for the planted pattern
	lView                // the remote viewer reads the next chunk
	lClose               // Close! in the log's tag
)

type largeStep struct {
	kind lKind
	f    [3]float64
	n    int
	word string
}

type largeLoad struct {
	log      []byte
	lines    []int // 1-based numbers of the lines holding the planted pattern
	script   []largeStep
	viewNext int64 // the viewer's next offset

	// Set-up state.
	w          *world.World
	u          *ui
	cs         *checks
	jw         *journal.Writer
	win        *core.Window // the log's window while open
	cmds       *core.Window
	editStf    *core.Window
	errors     *core.Window
	srv        *srvnet.Server
	served     chan struct{}
	viewer     *srvnet.Client
	sreg, vreg *obs.Registry
	residentMB float64
}

func newLarge(cfg config) (*largeLoad, error) {
	if cfg.logMiB < 9 {
		return nil, fmt.Errorf("a log of %d MiB: the log must exceed the 8 MiB residency budget to open paged", cfg.logMiB)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	l := &largeLoad{}
	l.log, l.lines = genLog(rng, cfg.logMiB<<20)
	visits := cfg.seconds * largeVisitsPer10s / 10
	if visits < 2 {
		visits = 2
	}
	// Typed words have one length, so that every visit writes the same
	// number of journal records and the checkpoints fall at the same
	// steps whatever the seed.
	word := func() string {
		b := make([]byte, 4)
		for i := range b {
			b[i] = byte('A' + rng.Intn(26))
		}
		return string(b)
	}
	step := func(k lKind) largeStep {
		return largeStep{kind: k, f: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}, n: rng.Intn(1 << 20)}
	}
	for v := 0; v < visits; v++ {
		l.script = append(l.script, step(lOpen))
		for j := 0; j < jumpsPerVisit; j++ {
			l.script = append(l.script, step(lJump), step(lView), step(lScroll), step(lClick), step(lView))
			if j%4 == 0 {
				st := step(lType)
				st.word = word()
				l.script = append(l.script, st)
			}
			if j%(jumpsPerVisit/4) == jumpsPerVisit/4-1 {
				l.script = append(l.script, step(lGrep))
			}
		}
		l.script = append(l.script, step(lClose))
	}
	return l, nil
}

// genLog makes a line-structured log of about size bytes with the
// planted pattern on a few seeded lines, whose numbers it returns.
func genLog(rng *rand.Rand, size int) ([]byte, []int) {
	words := make([]string, 512)
	for i := range words {
		b := make([]byte, 2+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(b)
	}
	buf := make([]byte, 0, size+256)
	var lines []int
	const wantPlanted = 16
	p := float64(wantPlanted) * 80 / float64(size)
	for n := 1; len(buf) < size; n++ {
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, " host"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(64)), 10)
		buf = append(buf, ':')
		for k := 2 + rng.Intn(12); k > 0; k-- {
			buf = append(buf, ' ')
			buf = append(buf, words[rng.Intn(len(words))]...)
		}
		if rng.Float64() < p {
			buf = append(buf, " "+planted...)
			lines = append(lines, n)
		}
		buf = append(buf, '\n')
	}
	return buf, lines
}

func (l *largeLoad) setups() int       { return 5 }
func (l *largeLoad) steps() int        { return len(l.script) }
func (l *largeLoad) speedProbe() probe { return wireProbe }

func (l *largeLoad) registries() []*obs.Registry {
	return []*obs.Registry{l.w.Help.Obs, l.sreg, l.vreg}
}

func (l *largeLoad) extras() map[string]float64 {
	return map[string]float64{"text.resident_peak_mb": l.residentMB}
}

func (l *largeLoad) setUp(m *meter, cs *checks) error {
	w, err := world.Build(120, 60)
	if err != nil {
		return err
	}
	if err := w.Boot(); err != nil {
		return err
	}
	l.w, l.cs = w, cs
	h := w.Help
	if err := w.FS.MkdirAll(logDir); err != nil {
		return err
	}
	if err := w.FS.WriteFile(logPath, l.log); err != nil {
		return err
	}
	if err := w.FS.Seal(logDir); err != nil {
		return err
	}
	if err := w.FS.WriteFile(logCmds, []byte(grepLog+"\n")); err != nil {
		return err
	}
	if l.cmds, err = h.OpenFile(logCmds, ""); err != nil {
		return err
	}
	h.MoveWindowToColumn(l.cmds, 0)
	h.MoveWindow(l.cmds, geom.Pt(h.ColumnRect(0).Min.X+1, 3))
	l.editStf = h.WindowByName("/help/edit/stf")
	l.errors = h.Errors()
	h.MoveWindow(l.errors, geom.Pt(h.ColumnRect(1).Min.X+1, 30))

	jfs := journal.NewMemFS()
	if l.jw, err = journal.Open(jfs, journal.Config{}); err != nil {
		return err
	}
	h.AttachJournal(l.jw, 0)

	l.sreg, l.vreg = obs.New(), obs.New()
	l.srv = srvnet.NewServer(w.FS)
	l.srv.Obs = l.sreg
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.served = make(chan struct{})
	go func() {
		defer close(l.served)
		l.srv.Serve(ln)
	}()
	if l.viewer, err = srvnet.Dial(ln.Addr().String()); err != nil {
		return err
	}
	l.viewer.Obs = l.vreg
	l.viewNext = 0
	l.residentMB = 0
	h.Render()

	// Warm-up: the first open of the log, and a first chunk for the
	// viewer; every later open is timed.
	l.u = &ui{h: h, m: &meter{}, gesture: clsAside}
	warm := l.cs
	l.cs = &checks{}
	l.do(largeStep{kind: lOpen})
	l.do(largeStep{kind: lView})
	l.do(largeStep{kind: lClose})
	l.viewNext = 0
	if l.u.m.failed > 0 {
		return fmt.Errorf("warm-up: %v", l.u.m.firstErr)
	}
	l.cs = warm
	l.u.m = m
	return nil
}

func (l *largeLoad) step(i int) {
	l.do(l.script[i])
	l.cs.note("resident buffer bytes stay under 3x the 8 MiB budget", l.bounded())
}

// bounded checks the residency bound after every action.
func (l *largeLoad) bounded() error {
	if l.win != nil {
		if mb := float64(l.win.Body.MemRunes()*core.MemBytesPerRune) / (1 << 20); mb > l.residentMB {
			l.residentMB = mb
		}
	}
	if mem := l.w.Help.MemBytes(); mem > memCeiling {
		return fmt.Errorf("resident %d bytes exceeds %d", mem, memCeiling)
	}
	return nil
}

func (l *largeLoad) do(st largeStep) {
	u, h := l.u, l.w.Help
	if l.win == nil && st.kind != lOpen && st.kind != lView {
		u.failGesture("gesture", fmt.Errorf("the log is not open"))
		return
	}
	switch st.kind {
	case lOpen:
		var err error
		u.m.begin(clsOpen, "open")
		u.m.call("core.OpenFile", func() { l.win, err = h.OpenFile(logPath, "") })
		u.render()
		u.m.stop()
		if err == nil && !l.win.Body.Paged() {
			err = fmt.Errorf("the log did not open paged")
		}
		u.m.end(l.cs.note("the log opens paged", err))
		if err != nil {
			l.win = nil
			return
		}
		// Give the log the rest of its column, as a user would.
		if _, err := u.reveal(l.win, 20); err != nil {
			u.failGesture("gesture.tab", err)
		}

	case lJump, lScroll, lClick:
		r, err := u.reveal(l.win, 20)
		if err != nil {
			u.failGesture("gesture", err)
			return
		}
		switch st.kind {
		case lJump:
			p := geom.Pt(u.scrollBarX(l.win), r.Min.Y+int(st.f[0]*float64(r.Dy())))
			u.input("gesture.jump", event.Click(event.Middle, p))
		case lScroll:
			b := event.Left
			if st.n%2 == 1 {
				b = event.Right
			}
			p := geom.Pt(u.scrollBarX(l.win), r.Min.Y+int(st.f[0]*float64(r.Dy())))
			u.input("gesture.scroll", event.Click(b, p))
		case lClick:
			u.input("gesture.click", event.Click(event.Left, pointIn(r, st.f[0], st.f[1])))
		}
		u.m.end(nil)

	case lType:
		l.typeAndUndo(st)

	case lGrep:
		u.locked(func(core.View) { l.errors.Body.Load("") })
		p0, err := u.locateBody(l.cmds, grepLog)
		if err != nil {
			u.m.failAction(clsEffect, "command.grep", err)
			return
		}
		u.command("command.grep", event.Sweep(event.Middle, p0, geom.Pt(p0.X+len(grepLog), p0.Y)))
		u.m.end(l.cs.note("grep -n finds the planted lines", l.grepLines(h.ErrorsText())))

	case lView:
		var data []byte
		var err error
		u.m.begin(clsInput, "view")
		u.m.call("srvnet.ReadFileAt", func() { data, err = l.viewer.ReadFileAt(logPath, l.viewNext, viewChunk) })
		u.m.stop()
		if err == nil {
			end := l.viewNext + viewChunk
			if end > int64(len(l.log)) {
				end = int64(len(l.log))
			}
			if !bytes.Equal(data, l.log[l.viewNext:end]) {
				err = fmt.Errorf("chunk at %d differs from the generated bytes", l.viewNext)
			}
			l.viewNext = end % int64(len(l.log))
		}
		u.m.end(l.cs.note("ReadFileAt chunks equal the generated bytes", err))

	case lClose:
		p, err := u.locateTag(l.win, "Close!")
		if err != nil {
			u.failGesture("gesture.close", err)
			return
		}
		u.input("gesture.close", event.Click(event.Middle, geom.Pt(p.X+1, p.Y)))
		if h.WindowByName(logPath) != nil {
			err = fmt.Errorf("the log is still open after Close!")
		}
		u.m.end(l.cs.note("Close! closes the log", err))
		l.win = nil
	}
}

// typeAndUndo clicks a spot in the log, types a word there one
// keystroke at a time, and middle-clicks Undo. The landing spot comes
// from the frame geometry and the selection, never from FindBody, which
// would materialize the whole paged body.
func (l *largeLoad) typeAndUndo(st largeStep) {
	u := l.u
	r, err := u.reveal(l.win, 20)
	if err != nil {
		u.failGesture("gesture.click", err)
		return
	}
	u.input("gesture.click", event.Click(event.Left, pointIn(r, st.f[0], st.f[1])))
	u.m.end(nil)
	q, n := l.win.Sel[core.SubBody].Q0, len(st.word)
	size := l.win.Body.Len()
	keep := n
	if q+keep > size {
		keep = size - q
	}
	before := l.win.Body.Slice(q, keep)
	for i, c := range st.word {
		u.input("keystroke", []event.Event{event.KbdEvent(c)})
		if i < n-1 {
			u.m.end(nil)
			continue
		}
		var err error
		if got := l.win.Body.Slice(q, n); got != st.word {
			err = fmt.Errorf("typed %q at %d, the body holds %q", st.word, q, got)
		}
		u.m.end(l.cs.note("keystrokes land at the click", err))
	}
	up, err := u.locateBody(l.editStf, "Undo")
	if err != nil {
		u.failGesture("gesture.undo", err)
		return
	}
	u.input("gesture.undo", event.Click(event.Middle, geom.Pt(up.X+1, up.Y)))
	if got := l.win.Body.Slice(q, keep); got != before || l.win.Body.Len() != size {
		err = fmt.Errorf("Undo left %q at %d, %q expected", got, q, before)
	}
	u.m.end(l.cs.note("Undo restores the log", err))
}

// grepLines checks grep -n's output against the generator's line
// numbers for the planted pattern.
func (l *largeLoad) grepLines(out string) error {
	var got []int
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		num, _, ok := strings.Cut(strings.TrimPrefix(line, logPath+":"), ":")
		n, err := strconv.Atoi(num)
		if !ok || err != nil {
			return fmt.Errorf("grep printed %q", line)
		}
		got = append(got, n)
	}
	if fmt.Sprint(got) != fmt.Sprint(l.lines) {
		return fmt.Errorf("grep found lines %v, the generator planted %v", got, l.lines)
	}
	return nil
}

func (l *largeLoad) finish(cs *checks) {
	cs.note("the journal takes every record", l.w.Help.SyncJournal())
}

func (l *largeLoad) tearDown() {
	if l.viewer != nil {
		l.viewer.Close()
		l.viewer = nil
	}
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		l.srv.Shutdown(ctx)
		cancel()
		<-l.served
		l.srv = nil
	}
	if l.jw != nil {
		l.jw.Close()
		l.jw = nil
	}
	if l.w != nil {
		l.w.Help.KillAll()
		l.w.Help.WaitIdle()
	}
	l.win = nil
}
