package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/vfs"
)

// This file threads the write-ahead journal through help. The design
// records state mutations, not input events:
//
//   - Text edits are captured at the single choke point every edit
//     funnels through — text.Buffer's primitive splice hook — so
//     typing, Cut, Paste, Undo, Redo, Get!, and file-interface writes
//     all journal identically, as OpSplice records.
//   - Everything else (selections, focus, layout, scroll, snarf,
//     clean/dirty flags) is captured by the one sweep that runs at the
//     end of each top-level interaction. Each window keeps what the last
//     sweep reported about it (Window.seen); the sweep compares, emits
//     one record per difference, and publishes the same interaction's
//     body and tag events on the bus. The sweep makes the journal
//     independent of *why* state changed: a placement heuristic's side
//     effects are journaled as the moves it made, so replay never
//     re-runs the heuristic and cannot diverge from it.
//   - Window creation and close are journaled where the session tracks
//     them, trackWindow and untrackWindow.
//   - Namespace mutations (Put, tool output, mkdir, bind) arrive
//     through vfs's mutation hook as OpFile records.
//
// A checkpoint is the list of ops that rebuilds the whole session from
// an empty one (checkpointOps), so recovery = empty the session, then
// apply the checkpoint's ops and the op tail after it through one replay
// path, applyOp. Undo history and interaction metrics are deliberately
// not journaled: they are reconstruction conveniences, not session
// state, and their loss across a crash is documented behaviour.

// recorder connects a Help instance to a journal.Writer. It keeps the
// session-wide state the last sweep journaled; per-window state lives
// in each Window.seen.
type recorder struct {
	w     *journal.Writer
	every int // checkpoint after this many ops
	since int

	split    int
	curWin   int
	curSub   int
	snarf    string
	errorsID int
}

// winState is what a sweep reports about one window: the buffer
// generations go to the bus, the rest to the journal.
type winState struct {
	body, tag     uint64
	col, top, org int
	hidden, isDir bool
	sel           [2]Selection
	modified      bool
}

// AttachJournal connects h to jw: every subsequent mutation is
// journaled, and a full checkpoint is written immediately (so the
// journal is self-contained from the first record). checkpointEvery
// bounds the replay tail: a new checkpoint plus compaction happens
// after that many ops. Call RecoverSession first when resuming.
func (h *Help) AttachJournal(jw *journal.Writer, checkpointEvery int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if checkpointEvery <= 0 {
		checkpointEvery = 2048
	}
	// Sweep before attaching: pending events reach the bus, and every
	// window's seen becomes the state the checkpoint below records, so
	// the first journaled sweep finds nothing stale.
	h.JournalSweep()
	cw, cs := h.currentIDs()
	rec := &recorder{
		w:        jw,
		every:    checkpointEvery,
		split:    h.cols[0].r.Max.X,
		curWin:   cw,
		curSub:   cs,
		snarf:    h.snarf,
		errorsID: h.errorsID(),
	}
	h.rec = rec
	jw.SetObs(h.Obs)
	for _, w := range h.byID {
		rec.hookBuffers(w)
	}
	h.FS.SetOnMutate(rec.fsMutated)
	jw.Checkpoint(checkpointOps(h))
}

// Journal returns the attached writer, or nil.
func (h *Help) Journal() *journal.Writer {
	if h.rec == nil {
		return nil
	}
	return h.rec.w
}

// currentIDs is the focus: the current window's id and subwindow, 0, 0
// for none.
func (h *Help) currentIDs() (int, int) {
	if h.curWin == nil {
		return 0, 0
	}
	return h.curWin.ID, h.curSub
}

// errorsID is the live Errors window's id, 0 when none exists.
func (h *Help) errorsID() int {
	if h.errors == nil || h.byID[h.errors.ID] != h.errors {
		return 0
	}
	return h.errors.ID
}

// colIndex returns the index of col in h.cols, 0 as a fallback.
func (h *Help) colIndex(col *Column) int {
	for i, c := range h.cols {
		if c == col {
			return i
		}
	}
	return 0
}

func (rec *recorder) hookBuffers(w *Window) {
	id := w.ID
	w.Tag.SetOnSplice(func(off, ndel int, ins string) {
		rec.emit(&journal.Op{Kind: journal.OpSplice, Win: id, Sub: SubTag, P0: off, P1: ndel, Str1: ins})
	})
	w.Body.SetOnSplice(func(off, ndel int, ins string) {
		rec.emit(&journal.Op{Kind: journal.OpSplice, Win: id, Sub: SubBody, P0: off, P1: ndel, Str1: ins})
	})
}

func (rec *recorder) emit(op *journal.Op) {
	rec.w.Append(op)
	rec.since++
}

func (rec *recorder) windowCreated(w *Window) {
	rec.hookBuffers(w)
	rec.emit(&journal.Op{Kind: journal.OpNewWin, Win: w.ID, Flag: w.IsDir})
}

func (rec *recorder) windowClosed(w *Window) {
	rec.emit(&journal.Op{Kind: journal.OpCloseWin, Win: w.ID})
}

func (rec *recorder) fsMutated(kind vfs.MutKind, p string, data []byte, aux string, flag int) {
	str2 := string(data)
	if kind == vfs.MutBind {
		str2 = aux
	}
	rec.emit(&journal.Op{Kind: journal.OpFile, P0: int(kind), P1: flag, Str1: p, Str2: str2})
}

// JournalSweep reports what changed in the session since the last
// sweep. It runs at the end of every top-level interaction (event,
// command, file-interface operation) and walks every window once,
// column by column, comparing it with what the last sweep reported
// (Window.seen): a moved buffer generation is published on the bus as a
// body or tag event, and with a journal attached every other difference
// is journaled, as are the session's focus, snarf, column split and
// Errors window. A checkpoint follows when the op budget since the last
// one is spent. A quiescent sweep emits nothing. It must never take
// help down, so it recovers its own panics.
func (h *Help) JournalSweep() {
	defer func() { recover() }()
	rec := h.rec
	if rec != nil {
		rec.sweepSession(h)
	}
	armed := h.Notify.Armed()
	for ci, col := range h.cols {
		for _, w := range col.wins {
			h.sweepWindow(w, ci, armed)
		}
	}
	if rec != nil && rec.since >= rec.every {
		rec.since = 0
		rec.w.Checkpoint(checkpointOps(h))
	}
}

func (rec *recorder) sweepSession(h *Help) {
	if cw, cs := h.currentIDs(); cw != rec.curWin || cs != rec.curSub {
		rec.curWin, rec.curSub = cw, cs
		rec.emit(&journal.Op{Kind: journal.OpCurrent, Win: cw, Sub: cs})
	}
	if h.snarf != rec.snarf {
		rec.snarf = h.snarf
		rec.emit(&journal.Op{Kind: journal.OpSnarf, Str1: h.snarf})
	}
	if split := h.cols[0].r.Max.X; split != rec.split {
		rec.split = split
		rec.emit(&journal.Op{Kind: journal.OpColSplit, P0: split})
	}
	if eid := h.errorsID(); eid != rec.errorsID {
		rec.errorsID = eid
		rec.emit(&journal.Op{Kind: journal.OpErrors, Win: eid})
	}
}

// sweepWindow reports what changed about w, in column col, since its
// last sweep, and stores the new state in w.seen. The compares are
// field by field: a whole-struct == compiles to a memory compare and a
// copy that cost more than the rest of the sweep.
func (h *Help) sweepWindow(w *Window, col int, armed bool) {
	s := &w.seen
	if g := w.Body.Gen(); g != s.body {
		s.body = g
		h.publishGen(w.ID, "body", g, armed)
	}
	if g := w.Tag.Gen(); g != s.tag {
		s.tag = g
		h.publishGen(w.ID, "tag", g, armed)
	}
	mod := w.Body.Modified()
	if col == s.col && w.top == s.top && w.hidden == s.hidden && w.IsDir == s.isDir &&
		w.bodyOrg == s.org && w.Sel[0] == s.sel[0] && w.Sel[1] == s.sel[1] && mod == s.modified {
		return
	}
	if h.rec != nil {
		var buf [5]journal.Op
		for _, op := range stateOps(buf[:0], w, col, s) {
			h.rec.emit(&op)
		}
	}
	s.col, s.top, s.hidden, s.isDir = col, w.top, w.hidden, w.IsDir
	s.org, s.sel, s.modified = w.bodyOrg, w.Sel, mod
}

// stateOps appends the ops that take window w, in column col, from the
// journaled state old to its present one: its placement, scroll, both
// selections and clean flag, each only where it differs. A nil old
// lists them all, as a checkpoint does.
func stateOps(ops []journal.Op, w *Window, col int, old *winState) []journal.Op {
	all := old == nil
	if all || col != old.col || w.top != old.top || w.hidden != old.hidden || w.IsDir != old.isDir {
		bits := 0
		if w.hidden {
			bits |= 1
		}
		if w.IsDir {
			bits |= 2
		}
		ops = append(ops, journal.Op{Kind: journal.OpPlace, Win: w.ID, P0: col, P1: w.top, P2: bits})
	}
	if all || w.bodyOrg != old.org {
		ops = append(ops, journal.Op{Kind: journal.OpScroll, Win: w.ID, P0: w.bodyOrg})
	}
	for sub, sel := range w.Sel {
		if all || sel != old.sel[sub] {
			ops = append(ops, journal.Op{Kind: journal.OpSelect, Win: w.ID, Sub: sub, P0: sel.Q0, P1: sel.Q1})
		}
	}
	if m := w.Body.Modified(); all || m != old.modified {
		ops = append(ops, journal.Op{Kind: journal.OpClean, Win: w.ID, Flag: !m})
	}
	return ops
}

// recoverPanic is deferred by the event loop and command executor: a
// panic anywhere below becomes a crash report plus an Errors-window
// fault instead of a dead session.
func (h *Help) recoverPanic(where string) {
	r := recover()
	if r == nil {
		return
	}
	h.PanicReport(where, r, debug.Stack())
}

// PanicReport handles a recovered panic: count it, flush the journal
// (the record of how we got here must survive), write a crash report
// next to the journal, and surface the fault through the Errors window.
// Reporting must never re-panic. Like JournalSweep, it runs with the
// actor lock already held: its callers are in-loop guards and device
// handlers reached through the serialized namespace view.
func (h *Help) PanicReport(where string, r any, stack []byte) {
	h.panicCount++
	defer func() { recover() }()
	if h.Obs != nil {
		h.Obs.Event("panic", fmt.Sprintf("%s: %v", where, r))
	}
	detail := ""
	if h.rec != nil {
		h.rec.w.Flush()
		report := fmt.Sprintf("panic in %s: %v\n\n%s", where, r, stack)
		if name, err := h.rec.w.WriteCrashReport([]byte(report)); err == nil {
			detail = " (crash report " + name + ")"
		}
	}
	if h.OnCrash != nil {
		h.OnCrash(where, fmt.Errorf("recovered panic: %v", r))
	}
	h.reportFault(where, fmt.Errorf("recovered panic: %v%s", r, detail))
}

// ReportPanicAsync reports a panic recovered in code that runs WITHOUT
// the actor lock (the blocking device reads vfs.ReadWait dispatches):
// the report itself needs the lock, so it is applied through the queue.
func (h *Help) ReportPanicAsync(where string, r any, stack []byte) {
	h.enqueue(func() { h.PanicReport(where, r, stack) })
}

// PanicCount reports how many panics the guards have recovered; the
// invariant tests assert it stays zero.
func (h *Help) PanicCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.panicCount
}

// SyncJournal makes the journal durable right now: sweep any pending
// state, write a checkpoint, and flush everything to the medium. It is
// what signal handlers and the daemon's drain call before exiting, so
// a SIGTERM never loses the WAL tail. With no journal attached it is a
// no-op. It returns the first write error the journal has seen.
func (h *Help) SyncJournal() error {
	h.mu.Lock()
	rec := h.rec
	if rec == nil {
		h.mu.Unlock()
		return nil
	}
	h.JournalSweep()
	ops := checkpointOps(h)
	h.mu.Unlock()
	// Enqueue outside the lock: a full journal queue must never stall
	// the actor.
	rec.w.Checkpoint(ops)
	return rec.w.Flush()
}

// ---------------------------------------------------------------------
// Checkpoints.

// checkpointOps lists the ops that rebuild h's session from an empty
// one, in replay order: OpSession (screen size, next window id), the
// column split, the namespace — an OpFile mkdir or write per Dump entry,
// then one bind per union member, Replace for the first and After for
// the rest — then per window in id order its creation, tag and body
// text, placement, scroll, both selections and clean flag, and last the
// focus, the snarf buffer and the Errors window. Under the actor lock it
// copies only each buffer's text and the namespace's contents; the
// journal's writer goroutine encodes the list.
func checkpointOps(h *Help) []journal.Op {
	sw, sh := h.screen.Size()
	files, binds := h.FS.Dump()
	wins := h.windows()
	ops := make([]journal.Op, 0, 5+len(files)+2*len(binds)+8*len(wins))
	ops = append(ops,
		journal.Op{Kind: journal.OpSession, P0: sw, P1: sh, P2: h.nextID},
		journal.Op{Kind: journal.OpColSplit, P0: h.cols[0].r.Max.X})
	for _, e := range files {
		if e.Dir {
			ops = append(ops, journal.Op{Kind: journal.OpFile, P0: int(vfs.MutMkdir), Str1: e.Path})
		} else {
			ops = append(ops, journal.Op{Kind: journal.OpFile, P0: int(vfs.MutWrite), Str1: e.Path, Str2: string(e.Data)})
		}
	}
	for _, mp := range sortedKeys(binds) {
		for i, src := range binds[mp] {
			flag := vfs.After
			if i == 0 {
				flag = vfs.Replace
			}
			ops = append(ops, journal.Op{Kind: journal.OpFile, P0: int(vfs.MutBind), P1: int(flag), Str1: src, Str2: mp})
		}
	}
	for _, w := range wins {
		ops = append(ops,
			journal.Op{Kind: journal.OpNewWin, Win: w.ID, Flag: w.IsDir},
			journal.Op{Kind: journal.OpSplice, Win: w.ID, Sub: SubTag, Str1: w.Tag.String()},
			journal.Op{Kind: journal.OpSplice, Win: w.ID, Sub: SubBody, Str1: w.Body.String()})
		ops = stateOps(ops, w, h.colIndex(w.col), nil)
	}
	cw, cs := h.currentIDs()
	return append(ops,
		journal.Op{Kind: journal.OpCurrent, Win: cw, Sub: cs},
		journal.Op{Kind: journal.OpSnarf, Str1: h.snarf},
		journal.Op{Kind: journal.OpErrors, Win: h.errorsID()})
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------
// Recovery.

// RecoverResult summarizes a successful RecoverSession.
type RecoverResult struct {
	Ops        int
	CkptGen    uint64
	MaxGen     uint64
	Torn       bool
	TornReason string
	Elapsed    time.Duration
}

// RecoverSession restores h from the journal in fsys: it closes h's
// windows, empties its namespace, and applies the latest checkpoint's
// ops and then the op tail in generation order, all through applyOp. It
// must be called on a freshly built help (before AttachJournal); the
// checkpoint must be for a screen of h's size. Any inconsistency — a
// malformed record, an op referencing an unknown window, an
// out-of-range splice — aborts with an error; nothing in here panics,
// whatever the journal contains.
func RecoverSession(h *Help, fsys journal.Fsys) (res *RecoverResult, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec != nil {
		return nil, errors.New("core: RecoverSession must run before AttachJournal")
	}
	st, err := journal.Load(fsys)
	if err != nil {
		return nil, err
	}
	if len(st.Checkpoint) == 0 || st.Checkpoint[0].Kind != journal.OpSession {
		return nil, errors.New("core: journal has no checkpoint to recover from")
	}
	sess := st.Checkpoint[0]
	if sw, sh := h.screen.Size(); sw != sess.P0 || sh != sess.P1 {
		return nil, fmt.Errorf("core: journal is for a %dx%d screen, this help is %dx%d",
			sess.P0, sess.P1, sw, sh)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: recovery panicked: %v", r)
		}
	}()
	t0 := time.Now()

	for _, w := range h.windows() {
		h.closeWindow(w)
	}
	h.FS.Reset()
	for i := range st.Checkpoint {
		if err := applyOp(h, &st.Checkpoint[i]); err != nil {
			return nil, fmt.Errorf("core: replaying checkpoint op %d: %w", i, err)
		}
	}
	for i := range st.Ops {
		if err := applyOp(h, &st.Ops[i]); err != nil {
			return nil, fmt.Errorf("core: replaying op %d (gen %d): %w", i, st.Ops[i].Gen, err)
		}
	}
	h.render()
	elapsed := time.Since(t0)
	h.Obs.Histogram("journal.replay").Observe(elapsed)
	return &RecoverResult{
		Ops:        len(st.Ops),
		CkptGen:    st.CkptGen,
		MaxGen:     st.MaxGen,
		Torn:       st.Torn,
		TornReason: st.TornReason,
		Elapsed:    elapsed,
	}, nil
}

// adoptWindow recreates a journaled window under its original id,
// bypassing the placement heuristic: the heuristic's side effects were
// journaled as explicit place records, so replay positions windows
// from the record, never from a re-run of the heuristic.
func (h *Help) adoptWindow(id int) *Window {
	w := newWindow(id)
	h.byID[id] = w
	h.mWindows.Add(1)
	h.trackWindow(w)
	if id >= h.nextID {
		h.nextID = id + 1
	}
	col := h.cols[0]
	w.col = col
	w.top = col.r.Min.Y
	w.hidden = true // until the journaled placement arrives
	col.wins = append(col.wins, w)
	col.sortWins()
	if h.OnWindowCreated != nil {
		h.OnWindowCreated(w)
	}
	return w
}

func placeAdopted(h *Help, w *Window, colIdx, top int, hidden, isDir bool) {
	if colIdx < 0 || colIdx >= len(h.cols) {
		colIdx = 0
	}
	dst := h.cols[colIdx]
	if w.col != dst {
		h.colOf(w).removeWindow(w)
		dst.wins = append(dst.wins, w)
		w.col = dst
	}
	if top < dst.r.Min.Y {
		top = dst.r.Min.Y
	}
	if top > dst.r.Max.Y-1 {
		top = dst.r.Max.Y - 1
	}
	w.top = top
	w.hidden = hidden
	w.IsDir = isDir
	dst.sortWins()
}

func clampOrg(org, n int) int {
	if org < 0 {
		return 0
	}
	if org > n {
		return n
	}
	return org
}

// applyOp replays one journal record against the live session.
func applyOp(h *Help, op *journal.Op) error {
	needWin := func() (*Window, error) {
		w := h.byID[op.Win]
		if w == nil {
			return nil, fmt.Errorf("unknown window %d", op.Win)
		}
		return w, nil
	}
	switch op.Kind {
	case journal.OpSession:
		// RecoverSession checked the screen size before replay began.
		if op.P2 > h.nextID {
			h.nextID = op.P2
		}
	case journal.OpSplice:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Sub != SubTag && op.Sub != SubBody {
			return fmt.Errorf("bad subwindow %d", op.Sub)
		}
		return w.Buffer(op.Sub).ApplySplice(op.P0, op.P1, op.Str1)
	case journal.OpClean:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Flag {
			w.Body.SetClean()
		} else {
			w.Body.SetDirty()
		}
	case journal.OpSelect:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Sub != SubTag && op.Sub != SubBody {
			return fmt.Errorf("bad subwindow %d", op.Sub)
		}
		w.SetSelection(op.Sub, op.P0, op.P1)
	case journal.OpCurrent:
		if op.Win == 0 {
			h.curWin, h.curSub = nil, 0
			return nil
		}
		w, err := needWin()
		if err != nil {
			return err
		}
		h.curWin, h.curSub = w, op.Sub
	case journal.OpSnarf:
		h.snarf = op.Str1
	case journal.OpNewWin:
		if op.Win <= 0 || h.byID[op.Win] != nil {
			return fmt.Errorf("new-window id %d invalid or duplicate", op.Win)
		}
		w := h.adoptWindow(op.Win)
		w.IsDir = op.Flag
	case journal.OpCloseWin:
		w, err := needWin()
		if err != nil {
			return err
		}
		h.closeWindow(w)
	case journal.OpPlace:
		w, err := needWin()
		if err != nil {
			return err
		}
		placeAdopted(h, w, op.P0, op.P1, op.P2&1 != 0, op.P2&2 != 0)
	case journal.OpScroll:
		w, err := needWin()
		if err != nil {
			return err
		}
		w.bodyOrg = clampOrg(op.P0, w.Body.Len())
	case journal.OpColSplit:
		if len(h.cols) == 2 && op.P0 > 0 && op.P0 < h.screen.Bounds().Dx() {
			h.cols[0].r.Max.X = op.P0
			h.cols[1].r.Min.X = op.P0
		}
	case journal.OpErrors:
		if op.Win == 0 {
			h.errors = nil
			return nil
		}
		w, err := needWin()
		if err != nil {
			return err
		}
		h.errors = w
	case journal.OpFile:
		return applyFileOp(h, op)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

func applyFileOp(h *Help, op *journal.Op) error {
	switch vfs.MutKind(op.P0) {
	case vfs.MutWrite:
		return h.FS.WriteFile(op.Str1, []byte(op.Str2))
	case vfs.MutAppend:
		return h.FS.AppendFile(op.Str1, []byte(op.Str2))
	case vfs.MutRemove:
		// Idempotent: the record asserts the path's absence. A replayed
		// close can race helpfs's own cleanup of the window directory.
		if err := h.FS.Remove(op.Str1); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
		return nil
	case vfs.MutMkdir:
		return h.FS.MkdirAll(op.Str1)
	case vfs.MutBind:
		// The bind was accepted live; its source may be gone since, or
		// resolve only through a bind that comes later in the replay.
		return h.FS.ReplayBind(op.Str1, op.Str2, vfs.BindFlag(op.P1))
	}
	return fmt.Errorf("unknown file mutation %d", op.P0)
}
