package core

import (
	"time"

	"repro/internal/draw"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/text"
)

// winSig captures everything renderWindow reads for one window. Two equal
// signatures guarantee the window would paint identically, so comparing
// them is a sound damage check.
type winSig struct {
	id        int
	top       int
	span      int
	tag, body *text.Buffer // buffers can be swapped wholesale (OpenFile)
	tagGen    uint64
	bodyGen   uint64
	bodyOrg   int
	selTag    Selection
	selBody   Selection
	cur       int // current subwindow if this window owns the selection, else -1
	sweep     Selection
	sweepSub  int // subwindow of a live exec sweep in this window, else -1
}

// colSig is one column's damage signature: its rectangle, tab tower, and
// the signatures of its displayed windows in paint order.
type colSig struct {
	r     geom.Rect
	nWins int
	wins  []winSig
}

func (a colSig) equal(b colSig) bool {
	if a.r != b.r || a.nWins != b.nWins || len(a.wins) != len(b.wins) {
		return false
	}
	for i := range a.wins {
		if a.wins[i] != b.wins[i] {
			return false
		}
	}
	return true
}

// colSignature computes col's current signature.
func (h *Help) colSignature(col *Column) colSig {
	sig := colSig{r: col.r, nWins: len(col.wins)}
	for _, w := range col.displayed() {
		ws := winSig{
			id:       w.ID,
			top:      w.top,
			span:     col.visibleSpan(w),
			tag:      w.Tag,
			body:     w.Body,
			tagGen:   w.Tag.Gen(),
			bodyGen:  w.Body.Gen(),
			bodyOrg:  w.bodyOrg,
			selTag:   w.Sel[SubTag],
			selBody:  w.Sel[SubBody],
			cur:      -1,
			sweepSub: -1,
		}
		if h.curWin == w {
			ws.cur = h.curSub
		}
		if sw := h.sweepExec; sw != nil && sw.win == w {
			ws.sweep = Selection{sw.q0, sw.q1}
			ws.sweepSub = sw.sub
		}
		sig.wins = append(sig.wins, ws)
	}
	return sig
}

// Render paints the whole screen: the column tab row, each column's tab
// tower, and every displayed window (tag line, scroll bar, body). The
// current selection paints in reverse video; selections in other
// subwindows paint in outline, as the paper specifies.
//
// Rendering is incremental: each column's signature (geometry, window
// list, buffer generations, origins, selections, sweep state) is compared
// against the previous render, and only columns whose signature changed
// are repainted. A column layout change (resize, first render) forces a
// full repaint so the tab row and any vacated cells are refreshed.
func (h *Help) Render() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.render()
}

func (h *Help) render() {
	var t0 time.Time
	timed := h.ins.on && h.ins.sampleRender()
	if timed {
		t0 = time.Now()
	}
	sigs := make([]colSig, len(h.cols))
	for i, col := range h.cols {
		sigs[i] = h.colSignature(col)
	}
	full := !h.rendered || len(sigs) != len(h.lastColSigs)
	if !full {
		for i := range sigs {
			if sigs[i].r != h.lastColSigs[i].r {
				full = true
				break
			}
		}
	}
	if full {
		h.screen.Clear()
		h.renderColumnTabRow()
		for _, col := range h.cols {
			h.renderColumn(col)
		}
		h.renderExecSweep()
		if h.ins.on {
			h.ins.rendersFull.Inc()
			h.ins.colsRepainted.Add(int64(len(h.cols)))
			b := h.screen.Bounds()
			h.ins.cellsTouched.Add(int64(b.Dx() * b.Dy()))
		}
	} else {
		repainted, cells := 0, 0
		for i, col := range h.cols {
			if sigs[i].equal(h.lastColSigs[i]) {
				continue
			}
			repainted++
			cells += col.r.Dx() * col.r.Dy()
			h.screen.Fill(col.r, ' ', draw.Plain)
			h.renderColumn(col)
		}
		if repainted > 0 {
			// Re-applying the sweep underline is idempotent for columns
			// that were not repainted.
			h.renderExecSweep()
		}
		if h.ins.on {
			// The all-clean render is the hottest case of all; keep it to
			// the two meters that actually move.
			if repainted > 0 {
				h.ins.colsRepainted.Add(int64(repainted))
				h.ins.cellsTouched.Add(int64(cells))
			}
			h.ins.colsReused.Add(int64(len(h.cols) - repainted))
		}
	}
	h.lastColSigs = sigs
	h.rendered = true
	if h.ins.on {
		h.ins.renders.Inc()
		if timed {
			h.ins.renderHist.Observe(time.Since(t0))
		}
	}
}

// renderExecSweep underlines the text currently being swept with the
// middle button, Figure 2's transient state.
func (h *Help) renderExecSweep() {
	sw := h.sweepExec
	if sw == nil || h.byID[sw.win.ID] != sw.win {
		return
	}
	f := sw.win.frameFor(sw.sub)
	if f == nil {
		return
	}
	end := sw.q1
	if end == sw.q0 {
		end = sw.q0 + 1 // a click shows at least the cell under it
	}
	for off := sw.q0; off < end; off++ {
		if p, ok := f.PointOf(off); ok {
			c := h.screen.At(p)
			h.screen.Set(p, draw.Cell{R: c.R, Attr: draw.Underline})
		}
	}
}

// renderColumnTabRow draws the row of column-expansion tabs across the top.
func (h *Help) renderColumnTabRow() {
	for _, col := range h.cols {
		h.screen.SetRune(geom.Pt(col.r.Min.X, 0), '■', draw.TabCell)
	}
}

// renderColumn draws one column: the tower of per-window tabs down the
// left edge, then the displayed windows.
func (h *Help) renderColumn(col *Column) {
	// Tab tower: one square per window, visible or invisible, in order.
	for i := range col.wins {
		y := col.r.Min.Y + i
		if y >= col.r.Max.Y {
			break
		}
		h.screen.SetRune(geom.Pt(col.r.Min.X, y), '■', draw.TabCell)
	}
	for _, w := range col.displayed() {
		h.renderWindow(col, w)
	}
}

// renderWindow draws w's visible span: tag on the first row, scroll bar
// down the left of the body, body text in the rest.
func (h *Help) renderWindow(col *Column, w *Window) {
	span := col.visibleSpan(w)
	if span <= 0 {
		return
	}
	area := col.winRect()
	tagRect := geom.Rt(area.Min.X, w.top, area.Max.X, w.top+1)
	// Tag line: background tint, then laid-out tag text with selection.
	h.screen.Fill(tagRect, ' ', draw.Tag)
	w.tagFrame = frame.Reuse(w.tagFrame, w.Tag, tagRect, 0)
	h.renderSub(w, SubTag, w.tagFrame, draw.Tag)

	if span == 1 {
		w.bodyFrame = nil
		return
	}
	bodyRect := geom.Rt(area.Min.X+1, w.top+1, area.Max.X, w.top+span)
	barRect := geom.Rt(area.Min.X, w.top+1, area.Min.X+1, w.top+span)
	if w.bodyOrg > w.Body.Len() {
		w.bodyOrg = w.Body.Len()
	}
	w.bodyFrame = frame.Reuse(w.bodyFrame, w.Body, bodyRect, w.bodyOrg)
	h.renderSub(w, SubBody, w.bodyFrame, draw.Plain)
	h.renderScrollBar(w, barRect)
}

// renderSub paints one subwindow's frame with its selection in the proper
// attribute, preserving the background attribute bg for unselected cells.
func (h *Help) renderSub(w *Window, sub int, f *frame.Frame, bg draw.Attr) {
	sel := w.Sel[sub]
	attr := draw.Outline
	if h.curWin == w && h.curSub == sub {
		attr = draw.Reverse
	}
	f.Render(h.screen, sel.Q0, sel.Q1, attr)
	if bg == draw.Plain {
		return
	}
	// Re-tint cells the frame painted Plain.
	r := f.Rect()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			p := geom.Pt(x, y)
			if c := h.screen.At(p); c.Attr == draw.Plain {
				h.screen.Set(p, draw.Cell{R: c.R, Attr: bg})
			}
		}
	}
}

// renderScrollBar draws the window's scroll bar: a bar whose extent shows
// the visible fraction of the body and whose position shows the origin.
func (h *Help) renderScrollBar(w *Window, r geom.Rect) {
	rows := r.Dy()
	if rows <= 0 {
		return
	}
	total := w.Body.NLines()
	if total < 1 {
		total = 1
	}
	topLine := w.Body.LineAt(w.bodyOrg) - 1
	// The bar's extent is the fraction of the buffer on screen, computed
	// from the count of visible lines (the lines from the origin to the
	// end of the buffer or the gutter, whichever is nearer). Using rows
	// as the visible count made the extent rows²/total, which overflows
	// the gutter for short buffers and then mis-pins the bar position.
	visible := total - topLine
	if visible < 0 {
		visible = 0
	}
	if visible > rows {
		visible = rows
	}
	barTop := topLine * rows / total
	barLen := visible * rows / total
	if barLen < 1 {
		barLen = 1
	}
	if barLen > rows {
		barLen = rows
	}
	if barTop+barLen > rows {
		barTop = rows - barLen
	}
	if barTop < 0 {
		barTop = 0
	}
	for i := 0; i < rows; i++ {
		ch := '│'
		attr := draw.Border
		if i >= barTop && i < barTop+barLen {
			ch = '█'
		}
		h.screen.SetRune(geom.Pt(r.Min.X, r.Min.Y+i), ch, attr)
	}
}

// hit describes what lives under a screen point.
type hit struct {
	kind hitKind
	col  int // column index for tab-row and tower hits
	tab  int // tab index within the column's tower
	win  *Window
	sub  int // SubTag or SubBody for window hits
}

type hitKind int

const (
	hitNothing hitKind = iota
	hitColumnTab
	hitWindowTab
	hitWindow
	hitScrollBar
)

// hitTest locates p on the rendered screen. Render must have run so the
// window frames exist.
func (h *Help) hitTest(p geom.Point) hit {
	if p.Y == 0 {
		for i, col := range h.cols {
			if p.X == col.r.Min.X {
				return hit{kind: hitColumnTab, col: i}
			}
		}
		return hit{kind: hitNothing}
	}
	for ci, col := range h.cols {
		if !p.In(col.r) {
			continue
		}
		if p.X == col.r.Min.X {
			idx := p.Y - col.r.Min.Y
			if idx >= 0 && idx < len(col.wins) {
				return hit{kind: hitWindowTab, col: ci, tab: idx, win: col.wins[idx]}
			}
			return hit{kind: hitNothing, col: ci}
		}
		// Topmost window whose visible span covers the row.
		for _, w := range col.displayed() {
			span := col.visibleSpan(w)
			if p.Y < w.top || p.Y >= w.top+span {
				continue
			}
			if p.Y == w.top {
				return hit{kind: hitWindow, col: ci, win: w, sub: SubTag}
			}
			if p.X == col.winRect().Min.X {
				return hit{kind: hitScrollBar, col: ci, win: w}
			}
			return hit{kind: hitWindow, col: ci, win: w, sub: SubBody}
		}
		return hit{kind: hitNothing, col: ci}
	}
	return hit{kind: hitNothing}
}

// frameFor returns the laid-out frame of a subwindow (rebuilding if a
// render has not happened since layout changed).
func (w *Window) frameFor(sub int) *frame.Frame {
	if sub == SubTag {
		return w.tagFrame
	}
	return w.bodyFrame
}

// FindBody returns the screen point of the first occurrence of substr in
// w's body, if it is currently laid out on screen. Render must have run.
func (h *Help) FindBody(w *Window, substr string) (geom.Point, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.findIn(w, SubBody, substr)
}

// FindTag returns the screen point of the first occurrence of substr in
// w's tag. Render must have run.
func (h *Help) FindTag(w *Window, substr string) (geom.Point, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.findIn(w, SubTag, substr)
}

func (h *Help) findIn(w *Window, sub int, substr string) (geom.Point, bool) {
	f := w.frameFor(sub)
	if f == nil {
		return geom.Point{}, false
	}
	// Only a match that starts on screen can have a point.
	buf := w.Buffer(sub)
	for from := f.Org(); ; {
		i := buf.Index(substr, from, f.MaxOff()+1)
		if i < 0 {
			return geom.Point{}, false
		}
		if p, ok := f.PointOf(i); ok {
			return p, true
		}
		from = i + 1
	}
}

// TabPoint returns the screen point of w's tab in its column's tower, so
// sessions can reveal covered windows with a genuine mouse click.
func (h *Help) TabPoint(w *Window) (geom.Point, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	col := h.colOf(w)
	for i, o := range col.wins {
		if o == w {
			p := geom.Pt(col.r.Min.X, col.r.Min.Y+i)
			if p.Y < col.r.Max.Y {
				return p, true
			}
			return geom.Point{}, false
		}
	}
	return geom.Point{}, false
}

// VisibleSpan reports how many screen rows w currently shows.
func (h *Help) VisibleSpan(w *Window) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.colOf(w).visibleSpan(w)
}

// BodyOrigin returns the rune offset of the first displayed body rune.
func (w *Window) BodyOrigin() int { return w.bodyOrg }

// Hidden reports whether the window is fully covered.
func (w *Window) Hidden() bool { return w.hidden }

// Top returns the window's tag row within its column.
func (w *Window) Top() int { return w.top }

// ColumnRect returns the rectangle of column ci (including its tab strip).
func (h *Help) ColumnRect(ci int) geom.Rect {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ci < 0 || ci >= len(h.cols) {
		return geom.Rect{}
	}
	return h.cols[ci].r
}

// ColumnIndexOf returns the index of the column holding w.
func (h *Help) ColumnIndexOf(w *Window) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	col := h.colOf(w)
	for i, c := range h.cols {
		if c == col {
			return i
		}
	}
	return 0
}
