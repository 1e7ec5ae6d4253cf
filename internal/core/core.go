package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/draw"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/vfs"
)

// minVisible is the smallest useful window: a tag line plus two body rows.
// The placement heuristic falls through its stages when less than this
// would remain visible.
const minVisible = 3

// Column is one vertical column of windows. Its left edge carries the
// tower of tabs, "one per window ... visible or invisible, in order from
// top to bottom of the column".
type Column struct {
	r    geom.Rect // includes the tab strip
	wins []*Window // ordered by top row; hidden windows keep their slot
}

// winRect returns the rectangle available to windows (excluding tabs).
func (c *Column) winRect() geom.Rect {
	r := c.r
	r.Min.X++
	return r
}

// displayed returns the non-hidden windows ordered by top row.
func (c *Column) displayed() []*Window {
	var out []*Window
	for _, w := range c.wins {
		if !w.hidden {
			out = append(out, w)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].top < out[j].top })
	return out
}

// visibleSpan returns the number of rows window w currently shows: from
// its top to the top of the next displayed window below (or the column
// bottom). Zero if hidden or fully covered.
func (c *Column) visibleSpan(w *Window) int {
	if w.hidden {
		return 0
	}
	bottom := c.r.Max.Y
	for _, o := range c.displayed() {
		if o != w && o.top > w.top && o.top < bottom {
			bottom = o.top
		}
	}
	span := bottom - w.top
	if span < 0 {
		return 0
	}
	return span
}

// lowestUsedRow returns the row just below the lowest visible text in the
// column, where the placement heuristic first tries to put a new tag.
func (c *Column) lowestUsedRow() int {
	low := c.r.Min.Y
	for _, w := range c.displayed() {
		span := c.visibleSpan(w)
		if span <= 0 {
			continue
		}
		used := 1 + w.Body.NLines() // tag plus body lines
		if used > span {
			used = span
		}
		if w.top+used > low {
			low = w.top + used
		}
	}
	return low
}

// sortWins keeps the slice ordered by top row so the tab tower mirrors
// vertical order.
func (c *Column) sortWins() {
	sort.SliceStable(c.wins, func(i, j int) bool { return c.wins[i].top < c.wins[j].top })
}

// Metrics aggregates the interaction accounting the paper's claims are
// checked against.
type Metrics struct {
	Presses    int // mouse button-down transitions ("button clicks")
	Travel     int // pointer travel, Manhattan cells
	Keystrokes int // runes typed
	Commands   int // commands executed via the middle button
}

// Help is the program: the screen, the namespace, the shell, the columns
// of windows, and the single snarf buffer.
//
// Help is an actor: every mutation happens while holding mu, the actor
// lock. Exported methods take the lock at the boundary and delegate to
// unexported twins; internal code and device handlers (which already run
// under the lock, via the serialized vfs view from SafeFS) call the twins
// directly. Commands run in their own goroutines and feed output back as
// closures on the apply queue, drained under the lock in FIFO order.
type Help struct {
	// mu is the actor lock serializing all state mutation. FS is the raw
	// namespace view, only ever used while holding mu; safeFS is the
	// locking view handed to off-loop code (commands, srvnet, the repl).
	mu     sync.Mutex
	safeFS *vfs.FS

	FS     *vfs.FS
	Shell  *shell.Shell
	screen *draw.Screen
	cols   []*Column

	// applyq is the apply queue: mutations enqueued by command goroutines
	// (output chunks, reaps), drained under mu by a lazily started
	// drainer. loopActive is its run state (0 idle, 1 draining).
	applyq     chan func()
	loopActive atomic.Int32

	// procs is the registry of live external commands; procIdle is
	// broadcast on every reap so WaitIdle can wait for quiescence.
	procs    map[int]*proc
	procSeq  int
	procIdle *sync.Cond

	byID   map[int]*Window
	nextID int

	// current selection ownership: the subwindow "with the most recent
	// selection or typed text"; its selection paints in reverse video,
	// all others in outline.
	curWin *Window
	curSub int

	snarf string

	machine event.Machine
	mousePt geom.Point // last pointer position, for typing dispatch

	// Obs is the observability registry: counters and latency
	// histograms served by helpfs under /mnt/help, and the spans it
	// hands to Notify. New installs one by default; SetObs replaces or
	// disables it.
	Obs *obs.Registry
	ins instruments

	// Notify is the session event bus: one line per observable state
	// change (window create/close, body and tag edits, command
	// execution), published from the choke points under the actor lock
	// and consumed by the event files helpfs serves, the Watch built-in,
	// and srvnet's readwait long polls. Publishing never blocks — the
	// bus history laps a slow reader, never waits for it — so emission
	// is safe on every hot path. New installs it; it is never nil.
	Notify *notify.Bus

	// Interaction accounting mirrors into atomics after every event so
	// Metrics() is a consistent snapshot from any goroutine while the
	// event loop runs.
	mPresses    obs.Counter
	mTravel     obs.Counter
	mKeystrokes obs.Counter
	mCommands   obs.Counter

	// mProcsLive mirrors len(h.procs) as an always-on atomic so the
	// stats goroutine's running-command gauge never needs the lock.
	mProcsLive obs.Counter

	// mWindows mirrors len(h.byID) the same way, so a session manager
	// can list many sessions without taking every actor lock.
	mWindows obs.Counter

	// mMemRunes mirrors the summed resident rune count of every live
	// window buffer (tags and bodies), maintained through each buffer's
	// SetOnMem hook (installed by trackWindow). Always-on atomic for
	// the same reason as mWindows: the daemon's budget governor sums
	// sessions without taking every actor lock.
	mMemRunes obs.Counter

	// maxProcs and maxBytes are the per-session resource bounds
	// installed by SetLimits. maxBytes caps the session's resident
	// buffer bytes (0: unlimited).
	maxProcs int
	maxBytes int64

	// maxResident is the paged-text threshold and per-buffer residency
	// cap: bodies larger than this open as piece tables over lazily
	// paged-in file segments instead of being materialized (0: paging
	// disabled, every body loads whole).
	maxResident int64

	// memGate and procGate are daemon-wide admission checks installed
	// by the session manager: consulted before a large body load or a
	// command launch, they refuse with a typed busy error when the
	// whole process's budget — not just this session's — is spent.
	memGate  func(addBytes int64) error
	procGate func() error

	// statsPath is where helpfs serves the flat stats file, for the
	// Metrics built-in.
	statsPath string

	errors *Window // the Errors window, created on demand

	// sweepExec is the live middle-button sweep, painted underlined.
	sweepExec *execSweep

	// lastColSigs holds each column's signature from the previous
	// Render; a column whose signature is unchanged is not repainted.
	lastColSigs []colSig
	rendered    bool // a full render has happened at least once

	// OnWindowCreated and OnWindowClosed notify observers (the helpfs
	// file service) when windows come and go.
	OnWindowCreated func(*Window)
	OnWindowClosed  func(*Window)

	// OnCrash, when set, is told about every recovered panic after the
	// journal has been flushed and the crash report written. It runs
	// with the actor lock held: implementations must not call back into
	// locking methods of this Help, and must not block. The
	// multi-session daemon uses it to mark the session crashed while
	// the rest keep serving.
	OnCrash func(where string, err error)

	// rec is the session journal recorder, nil unless AttachJournal
	// has connected one; panicCount tallies panics the event-loop and
	// executor guards have recovered.
	rec        *Recorder
	panicCount int

	// exitPending arms the two-step Exit: set when Exit was refused
	// over unsaved windows or live commands, cleared by any other command.
	exitPending bool

	exited atomic.Bool
}

// New creates a help instance on a w x h cell screen over the given
// namespace and shell, with two empty columns (the boot arrangement).
func New(fs *vfs.FS, sh *shell.Shell, w, h int) *Help {
	h9 := &Help{
		FS:     fs,
		Shell:  sh,
		screen: draw.NewScreen(w, h),
		byID:   map[int]*Window{},
		nextID: 1,
		applyq: make(chan func(), 256),
		procs:  map[int]*proc{},
		Notify: notify.New(),
	}
	h9.maxResident = DefaultMaxResident
	h9.safeFS = fs.Serialized(&h9.mu)
	h9.procIdle = sync.NewCond(&h9.mu)
	// Row 0 is the column tab row; columns split the rest side by side.
	mid := w / 2
	h9.cols = []*Column{
		{r: geom.Rt(0, 1, mid, h)},
		{r: geom.Rt(mid, 1, w, h)},
	}
	h9.SetObs(obs.New())
	return h9
}

// Screen returns the display, rendered by Render.
func (h *Help) Screen() *draw.Screen { return h.screen }

// SafeFS returns the serialized namespace view: same tree as FS, but
// every operation takes the actor lock. Off-loop code — commands, srvnet
// servers, tests poking the namespace concurrently — must use this view.
func (h *Help) SafeFS() *vfs.FS { return h.safeFS }

// Exited reports whether Exit has been executed. Lock-free.
func (h *Help) Exited() bool { return h.exited.Load() }

// Metrics returns the current interaction accounting. It reads only
// atomics mirrored after each event, so it is safe to call from any
// goroutine while the event loop runs.
func (h *Help) Metrics() Metrics {
	return Metrics{
		Presses:    int(h.mPresses.Load()),
		Travel:     int(h.mTravel.Load()),
		Keystrokes: int(h.mKeystrokes.Load()),
		Commands:   int(h.mCommands.Load()),
	}
}

// Columns returns the number of columns.
func (h *Help) Columns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.cols)
}

// Windows returns all windows ordered by id.
func (h *Help) Windows() []*Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windows()
}

func (h *Help) windows() []*Window {
	out := make([]*Window, 0, len(h.byID))
	for _, w := range h.byID {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Window returns the window with the given id, or nil.
func (h *Help) Window(id int) *Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.byID[id]
}

// WindowByName returns the window whose tag names file, or nil. ("If the
// file is already open, the command just guarantees that its window is
// visible.")
func (h *Help) WindowByName(name string) *Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windowByName(name)
}

func (h *Help) windowByName(name string) *Window {
	name = vfs.Clean(name)
	for _, w := range h.windows() {
		wn := w.FileName()
		if wn == "" {
			continue
		}
		if vfs.Clean(strings.TrimSuffix(wn, "/")) == strings.TrimSuffix(name, "/") {
			return w
		}
	}
	return nil
}

// Current returns the window and subwindow owning the current selection.
func (h *Help) Current() (*Window, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.curWin, h.curSub
}

// SetCurrent makes (w, sub) the owner of the current selection.
func (h *Help) SetCurrent(w *Window, sub int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setCurrent(w, sub)
}

func (h *Help) setCurrent(w *Window, sub int) {
	h.curWin, h.curSub = w, sub
}

// Snarf returns the snarf (cut) buffer contents.
func (h *Help) Snarf() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snarf
}

// colAt returns the column containing point p, defaulting to the last.
func (h *Help) colAt(p geom.Point) *Column {
	for _, c := range h.cols {
		if p.In(c.r) {
			return c
		}
	}
	return h.cols[len(h.cols)-1]
}

// colOf returns the column of w (its own, or the first as fallback).
func (h *Help) colOf(w *Window) *Column {
	if w != nil && w.col != nil {
		return w.col
	}
	return h.cols[0]
}

// selectionColumn returns the column containing the current selection,
// where the placement heuristic puts new windows.
func (h *Help) selectionColumn() *Column {
	if h.curWin != nil && h.curWin.col != nil {
		return h.curWin.col
	}
	return h.cols[0]
}

// NewWindow creates an empty window placed by the heuristic in the column
// of the current selection.
func (h *Help) NewWindow() *Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.newWindowIn(h.selectionColumn())
}

// NewWindowIn creates an empty window in column index ci.
func (h *Help) NewWindowIn(ci int) *Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.newWindowInCol(ci)
}

func (h *Help) newWindowInCol(ci int) *Window {
	if ci < 0 || ci >= len(h.cols) {
		ci = 0
	}
	return h.newWindowIn(h.cols[ci])
}

func (h *Help) newWindowIn(col *Column) *Window {
	w := newWindow(h.nextID)
	h.nextID++
	h.byID[w.ID] = w
	h.mWindows.Add(1)
	h.trackWindow(w)
	h.place(w, col)
	if h.OnWindowCreated != nil {
		h.OnWindowCreated(w)
	}
	// After OnWindowCreated: by the time a subscriber reacts to the
	// event, the window's files exist under /mnt/help/<n>/.
	h.Notify.Publish(w.ID, "new", "")
	return w
}

// place runs the paper's placement heuristic, quoted from the Discussion:
//
//	"first ... place the new window at the bottom of the column containing
//	the selection. It places the tag of the window immediately below the
//	lowest visible text already in the column. If that would leave too
//	little of the new window visible, the new window is placed to cover
//	half of the lowest window in the column. If that would still leave too
//	little visible, the new window is positioned over the bottom 25% of
//	the column ... which may entail hiding some windows entirely."
func (h *Help) place(w *Window, col *Column) {
	w.col = col
	w.hidden = false
	top := col.lowestUsedRow()
	if col.r.Max.Y-top < minVisible {
		// Stage two: cover half of the lowest window.
		if disp := col.displayed(); len(disp) > 0 {
			lowest := disp[len(disp)-1]
			span := col.visibleSpan(lowest)
			top = lowest.top + span/2
		}
		if col.r.Max.Y-top < minVisible {
			// Stage three: the bottom 25% of the column.
			top = col.r.Max.Y - col.r.Dy()/4
			if col.r.Max.Y-top < minVisible {
				top = col.r.Max.Y - minVisible
			}
			if top < col.r.Min.Y {
				top = col.r.Min.Y
			}
			// Hide windows this placement covers completely.
			for _, o := range col.displayed() {
				if o != w && o.top >= top {
					o.hidden = true
				}
			}
		}
	}
	w.top = top
	col.wins = append(col.wins, w)
	col.sortWins()
}

// Reveal makes w fully visible "from the tag to the bottom of the column
// it is in", the action of clicking its tab: windows displayed below it
// are covered entirely.
func (h *Help) Reveal(w *Window) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reveal(w)
}

func (h *Help) reveal(w *Window) {
	col := h.colOf(w)
	w.hidden = false
	if w.top >= col.r.Max.Y-1 {
		w.top = col.r.Max.Y - minVisible
		if w.top < col.r.Min.Y {
			w.top = col.r.Min.Y
		}
	}
	for _, o := range col.wins {
		if o != w && !o.hidden && o.top >= w.top {
			o.hidden = true
		}
	}
	col.sortWins()
}

// MoveWindow drags w so its tag lands at p, possibly into another column,
// then does "whatever local rearrangement is necessary": nudging windows
// off the exact row, keeping the tag visible, or covering windows that no
// longer fit.
func (h *Help) MoveWindow(w *Window, p geom.Point) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.moveWindow(w, p)
}

func (h *Help) moveWindow(w *Window, p geom.Point) {
	dst := h.colAt(p)
	src := h.colOf(w)
	if src != dst {
		src.removeWindow(w)
		dst.wins = append(dst.wins, w)
		w.col = dst
	}
	top := p.Y
	if top < dst.r.Min.Y {
		top = dst.r.Min.Y
	}
	if top > dst.r.Max.Y-1 {
		top = dst.r.Max.Y - 1
	}
	w.top = top
	w.hidden = false
	// Local rearrangement: a displayed window on w's row is nudged down
	// one row, which may push the next one down in turn, cascading until
	// a gap absorbs it; windows pushed off the column are hidden, keeping
	// at least w's tag fully visible.
	next := w.top + 1
	for _, o := range dst.displayed() {
		if o == w || o.top < w.top {
			continue
		}
		if o.top < next {
			o.top = next
		}
		next = o.top + 1
		if o.top >= dst.r.Max.Y {
			o.hidden = true
		}
	}
	dst.sortWins()
}

// MoveWindowToColumn moves w into column index ci, re-running the
// placement heuristic there; used when booting tools into the right-hand
// column.
func (h *Help) MoveWindowToColumn(w *Window, ci int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.moveWindowToColumn(w, ci)
}

func (h *Help) moveWindowToColumn(w *Window, ci int) {
	if ci < 0 || ci >= len(h.cols) {
		return
	}
	dst := h.cols[ci]
	src := h.colOf(w)
	if src == dst {
		return
	}
	src.removeWindow(w)
	h.place(w, dst)
}

func (c *Column) removeWindow(w *Window) {
	for i, o := range c.wins {
		if o == w {
			c.wins = append(c.wins[:i], c.wins[i+1:]...)
			return
		}
	}
}

// CloseWindow removes w from the screen and the window table.
func (h *Help) CloseWindow(w *Window) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closeWindow(w)
}

func (h *Help) closeWindow(w *Window) {
	if h.byID[w.ID] != w {
		return // already closed
	}
	h.colOf(w).removeWindow(w)
	delete(h.byID, w.ID)
	h.mWindows.Add(-1)
	h.untrackWindow(w)
	if h.curWin == w {
		h.curWin = nil
	}
	if h.errors == w {
		h.errors = nil
	}
	if h.OnWindowClosed != nil {
		h.OnWindowClosed(w)
	}
	h.Notify.Publish(w.ID, "del", w.FileName())
}

// ExpandColumn gives column ci two thirds of the screen width, the action
// of the tab row "across the top of the columns [that] allows the columns
// to expand horizontally".
func (h *Help) ExpandColumn(ci int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expandColumn(ci)
}

func (h *Help) expandColumn(ci int) {
	if len(h.cols) != 2 || ci < 0 || ci > 1 {
		return
	}
	w := h.screen.Bounds().Dx()
	split := w / 3
	if ci == 0 {
		split = 2 * w / 3
	}
	h.cols[0].r.Max.X = split
	h.cols[1].r.Min.X = split
}

// execSweep is an in-progress middle-button sweep.
type execSweep struct {
	win    *Window
	sub    int
	q0, q1 int
}

// Errors returns the Errors window, creating it if needed: "the standard
// and error outputs are directed to a special window, called Errors, that
// will be created automatically if needed."
func (h *Help) Errors() *Window {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.errorsWin()
}

// ErrorsText snapshots the Errors window's body under the actor lock,
// without creating the window. Observers polling a running command's
// streamed output use it; reading the window pointer's buffer directly
// would race with the command's enqueued appends.
func (h *Help) ErrorsText() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.errors == nil || h.byID[h.errors.ID] == nil {
		return ""
	}
	return h.errors.Body.String()
}

func (h *Help) errorsWin() *Window {
	if h.errors != nil && h.byID[h.errors.ID] != nil {
		return h.errors
	}
	w := h.newWindowIn(h.selectionColumn())
	w.Tag.SetString("Errors\tClose!")
	w.Tag.SetClean()
	h.errors = w
	return w
}

// defaultErrorsCap bounds the Errors window body (in runes): a chatty
// failing command trims old output from the front instead of eating
// memory.
const defaultErrorsCap = 64 * 1024

// Limits are per-session resource bounds. A zero field keeps the
// current value. They exist so one runaway session in a multi-session
// process degrades visibly — refused commands, trimmed logs — instead
// of eating the memory every other session runs in.
type Limits struct {
	// MaxProcs caps live external commands; further launches are
	// refused with a line in Errors. Negative means unlimited.
	MaxProcs int
	// MaxBytes caps the session's resident buffer bytes (tags plus
	// bodies, at MemBytesPerRune per rune): a body load that would
	// exceed it is refused with a typed busy error instead of letting
	// one session opening huge files starve its neighbors. Negative
	// means unlimited.
	MaxBytes int64
	// MaxResident sets the paged-text threshold and per-buffer
	// residency cap: files larger than this open as paged piece tables
	// holding at most this many resident bytes of text. Zero keeps the
	// current value (DefaultMaxResident after New); negative disables
	// paging so every body materializes, the pre-paging behavior.
	MaxResident int64
}

// SetLimits installs per-session resource bounds.
func (h *Help) SetLimits(l Limits) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if l.MaxProcs != 0 {
		h.maxProcs = l.MaxProcs
	}
	if l.MaxBytes != 0 {
		h.maxBytes = l.MaxBytes
		if l.MaxBytes < 0 {
			h.maxBytes = 0
		}
	}
	if l.MaxResident != 0 {
		h.maxResident = l.MaxResident
		if l.MaxResident < 0 {
			h.maxResident = 0
		}
	}
}

// SetMemGate installs (or, with nil, removes) the daemon-wide memory
// admission check: consulted with the projected resident-byte increase
// before a large body load, it refuses — typically with a
// vfs.BusyError carrying a retry-after hint — when the whole process's
// budget is spent. Loads below memGateRunes skip the consult, so
// keystroke-sized edits never contend on the daemon's totals.
func (h *Help) SetMemGate(fn func(addBytes int64) error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.memGate = fn
}

// SetProcGate installs (or, with nil, removes) the daemon-wide command
// admission check, consulted after the per-session MaxProcs bound.
func (h *Help) SetProcGate(fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.procGate = fn
}

// MemBytesPerRune is the resident cost of one buffered rune: gap
// buffers store runes, four bytes each.
const MemBytesPerRune = 4

// memGateRunes is the load size below which checkMem skips the daemon
// gate: per-keystroke edits must not consult (and contend on) the
// process-wide budget.
const memGateRunes = 1024

// trackWindow wires w's buffers into the session's resident-size
// accounting. Installed at both window-creation choke points (newWindowIn
// and the recovery path's adoptWindow); untrackWindow reverses it.
func (h *Help) trackWindow(w *Window) {
	h.mMemRunes.Add(int64(w.Tag.MemRunes() + w.Body.MemRunes()))
	w.Tag.SetOnMem(func(d int) { h.mMemRunes.Add(int64(d)) })
	w.Body.SetOnMem(func(d int) { h.mMemRunes.Add(int64(d)) })
}

func (h *Help) untrackWindow(w *Window) {
	w.Tag.SetOnMem(nil)
	w.Body.SetOnMem(nil)
	h.mMemRunes.Add(-int64(w.Tag.MemRunes() + w.Body.MemRunes()))
}

// checkMem is the memory admission check for a body load of addRunes
// runes (callers may pass a byte count: runes never exceed UTF-8
// bytes, so the check errs refusing). It consults the session's
// MaxBytes cap and, for large loads, the daemon-wide gate. Runs under
// the actor lock.
func (h *Help) checkMem(addRunes int) error {
	if addRunes <= 0 {
		return nil
	}
	addBytes := int64(addRunes) * MemBytesPerRune
	if h.maxBytes > 0 && h.mMemRunes.Load()*MemBytesPerRune+addBytes > h.maxBytes {
		h.Obs.Counter("core.mem.refused").Inc()
		h.Obs.Event("limit", fmt.Sprintf("load of %d bytes refused: session memory limit %d", addBytes, h.maxBytes))
		return &vfs.BusyError{Msg: fmt.Sprintf("core: session memory limit (%d bytes) reached", h.maxBytes)}
	}
	if h.memGate != nil && addRunes >= memGateRunes {
		if err := h.memGate(addBytes); err != nil {
			h.Obs.Counter("core.mem.refused").Inc()
			return err
		}
	}
	return nil
}

// WindowCount reports the number of windows without taking the actor
// lock; it is maintained as an atomic alongside the window table.
func (h *Help) WindowCount() int { return int(h.mWindows.Load()) }

// ProcCount reports the number of live external commands, lock-free.
func (h *Help) ProcCount() int { return int(h.mProcsLive.Load()) }

// MemBytes reports the session's resident buffer bytes, lock-free; it
// is maintained as an atomic through the buffers' SetOnMem hooks.
func (h *Help) MemBytes() int64 { return h.mMemRunes.Load() * MemBytesPerRune }

// AppendErrors appends text to the Errors window, trimming from the
// front — at a line boundary when possible — once the body exceeds
// defaultErrorsCap.
func (h *Help) AppendErrors(s string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.appendErrors(s)
}

func (h *Help) appendErrors(s string) {
	if s == "" {
		return
	}
	w := h.errorsWin()
	w.Body.Insert(w.Body.Len(), s)
	w.Body.Commit()
	if over := w.Body.Len() - defaultErrorsCap; over > 0 {
		cut := over
		// Round the cut up to the next line start so the window never
		// opens mid-line; one huge line falls back to an exact trim.
		ln := w.Body.LineAt(cut)
		if ls := w.Body.LineStart(ln); ls < cut {
			if next := w.Body.LineStart(ln + 1); next < w.Body.Len() {
				cut = next
			}
		}
		w.Body.Delete(0, cut)
		w.Body.Commit()
		sel := w.Sel[SubBody]
		w.Sel[SubBody] = clampSel(Selection{sel.Q0 - cut, sel.Q1 - cut}, w.Body.Len())
		if w.bodyOrg > cut {
			w.bodyOrg -= cut
		} else {
			w.bodyOrg = 0
		}
	}
	// Keep the tail visible, like a log.
	w.scrollTo(w.Body.Len())
}

// ReportFault surfaces a background-service failure in the Errors
// window — the paper's channel for asynchronous trouble — so a dead CPU
// server or a failing mount degrades visibly instead of silently. The
// source names the service ("remote", "mail"); the error is printed
// after it.
func (h *Help) ReportFault(source string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reportFault(source, err)
}

func (h *Help) reportFault(source string, err error) {
	if err == nil {
		h.Obs.Event("fault", source+": ok")
		h.appendErrors(fmt.Sprintf("%s: ok\n", source))
		return
	}
	h.Obs.Event("fault", fmt.Sprintf("%s: %v", source, err))
	h.appendErrors(fmt.Sprintf("%s: %v\n", source, err))
}

// OpenFile opens name (already absolute) in a window, reusing an existing
// window for the same file. addr optionally positions the view
// ("help.c:27"). It returns the window.
func (h *Help) OpenFile(name, addr string) (*Window, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.openFile(name, addr)
}

func (h *Help) openFile(name, addr string) (*Window, error) {
	// Callers outside the event loop (the repl, helpfs) reach OpenFile
	// directly, so it sweeps the journal itself.
	defer h.JournalSweep()
	name = vfs.Clean(name)
	if w := h.windowByName(name); w != nil {
		h.reveal(w)
		if addr != "" {
			if err := w.ShowAddr(addr); err != nil {
				return w, err
			}
		}
		return w, nil
	}
	info, err := h.FS.Stat(name)
	if err != nil {
		return nil, err
	}
	w := h.newWindowIn(h.selectionColumn())
	if info.IsDir {
		// "When a directory is Opened, help puts its name, including a
		// final slash, in the tag and just lists the contents in the
		// body."
		listing, err := h.dirListing(name)
		if err != nil {
			h.closeWindow(w)
			return nil, err
		}
		if err := h.checkMem(len(listing)); err != nil {
			h.closeWindow(w)
			return nil, err
		}
		w.IsDir = true
		// Load, not a fresh buffer: the journal's splice hook (and any
		// other observer) must survive adopting the contents.
		w.Body.Load(listing)
		w.SetNameTag(name + "/")
		return w, nil
	}
	if h.pagedEligible(info) {
		// Large file: point the body at the file instead of slurping it.
		// Any indexing failure falls back to the materialized path.
		if err := h.loadPagedBody(w, name, info); err == nil {
			w.SetNameTag(name)
			if addr != "" {
				if err := w.ShowAddr(addr); err != nil {
					return w, err
				}
			}
			return w, nil
		}
	}
	data, gen, err := h.FS.ReadFileGen(name)
	if err != nil {
		h.closeWindow(w)
		return nil, err
	}
	if err := h.checkMem(len(data)); err != nil {
		h.closeWindow(w)
		return nil, err
	}
	w.Body.Load(string(data))
	w.fileGen = gen
	w.SetNameTag(name)
	if addr != "" {
		if err := w.ShowAddr(addr); err != nil {
			return w, err
		}
	}
	return w, nil
}

func (h *Help) dirListing(name string) (string, error) {
	f, err := h.FS.Open(name, vfs.OREAD)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Get reloads w's body from its file, discarding edits.
func (h *Help) Get(w *Window) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.get(w)
}

func (h *Help) get(w *Window) error {
	name := w.FileName()
	if name == "" {
		return fmt.Errorf("window %d has no file name", w.ID)
	}
	if w.IsDir || strings.HasSuffix(name, "/") {
		listing, err := h.dirListing(strings.TrimSuffix(name, "/"))
		if err != nil {
			return err
		}
		if err := h.checkMem(len(listing) - w.Body.Len()); err != nil {
			return err
		}
		w.Body.SetString(listing)
		w.Body.SetClean()
		w.Sel[SubBody] = clampSel(w.Sel[SubBody], w.Body.Len())
		w.RefreshTag()
		return nil
	}
	info, err := h.FS.Stat(name)
	if err != nil {
		return err
	}
	// Diff-aware reload: when the file carries a generation and it has
	// not moved since this window last loaded or put it, and the buffer
	// holds no local edits, the re-read would reproduce the buffer
	// byte for byte — skip it entirely.
	if info.Gen != 0 && info.Gen == w.fileGen && !w.Body.Modified() {
		h.Obs.Counter("core.get.unchanged").Inc()
		w.RefreshTag()
		return nil
	}
	if h.pagedEligible(info) || w.Body.Paged() {
		// Large files reload as a fresh paged view; a window that is
		// already paged stays paged even if the file shrank, keeping
		// its budget behavior stable.
		if err := h.loadPagedBody(w, name, info); err != nil {
			return err
		}
		w.Sel[SubBody] = clampSel(w.Sel[SubBody], w.Body.Len())
		w.RefreshTag()
		return nil
	}
	data, gen, err := h.FS.ReadFileGen(name)
	if err != nil {
		return err
	}
	if err := h.checkMem(len(data) - w.Body.Len()); err != nil {
		return err
	}
	w.Body.SetString(string(data))
	w.Body.SetClean()
	w.fileGen = gen
	w.Sel[SubBody] = clampSel(w.Sel[SubBody], w.Body.Len())
	w.RefreshTag()
	return nil
}

// Put writes w's body to its file (or to name if given) and marks the
// window clean, removing Put! from the tag.
func (h *Help) Put(w *Window, name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.put(w, name)
}

func (h *Help) put(w *Window, name string) error {
	if name == "" {
		name = w.FileName()
	}
	if name == "" {
		return fmt.Errorf("window %d has no file name", w.ID)
	}
	if err := h.FS.WriteFile(vfs.Clean(name), []byte(w.Body.String())); err != nil {
		return err
	}
	w.Body.SetClean()
	// The buffer now matches the file at its post-write generation, so
	// a Get with no further changes can skip the re-read.
	w.fileGen = h.FS.Gen(vfs.Clean(name))
	w.SetNameTag(vfs.Clean(name))
	return nil
}
