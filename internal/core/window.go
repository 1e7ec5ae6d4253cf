// Package core implements help itself: the combination of editor, window
// system, shell, and user interface the paper describes. The screen is
// tiled with columns of windows; each window is two editable subwindows (a
// one-line tag and a body); the three mouse buttons select, execute, and
// arrange; automatic heuristics and defaults fill in everything else.
package core

import (
	"fmt"
	"strings"

	"repro/internal/frame"
	"repro/internal/text"
	"repro/internal/vfs"
)

// Subwindow indices: every window is a tag above a body, and each
// subwindow has its own selection.
const (
	SubTag = iota
	SubBody
)

// Selection is a rune range [Q0, Q1) within one subwindow.
type Selection struct {
	Q0, Q1 int
}

// Empty reports whether the selection is null.
func (s Selection) Empty() bool { return s.Q0 >= s.Q1 }

// Window is one help window: a tag line and a body of editable text.
type Window struct {
	ID   int
	Tag  *text.Buffer
	Body *text.Buffer

	// Sel holds the selection of each subwindow (SubTag, SubBody).
	Sel [2]Selection

	// top is the row of the tag line within the column; the window's
	// displayed region runs from top to the top of the next displayed
	// window below it (or the column bottom).
	top    int
	hidden bool
	col    *Column

	// bodyOrg is the body frame origin (scroll position), preserved
	// across renders.
	bodyOrg int

	// frames are rebuilt at render time; kept for mouse translation.
	tagFrame  *frame.Frame
	bodyFrame *frame.Frame

	// IsDir marks directory windows, whose tag ends in a slash and whose
	// body lists the directory.
	IsDir bool

	// fileGen is the generation of the window's file as of the last
	// load or put (0 when unknown). Get compares it against a fresh
	// stat to skip re-reading a file that has not moved.
	fileGen uint64

	// seen is what the last sweep reported about the window; see
	// Help.JournalSweep.
	seen winState
}

// newWindow builds an empty window with the given id. Its seen column
// is -1, which no real column matches, so the first sweep reports the
// window's placement.
func newWindow(id int) *Window {
	return &Window{
		ID:   id,
		Tag:  text.NewBuffer(""),
		Body: text.NewBuffer(""),
		seen: winState{col: -1},
	}
}

// FileName returns the first space-separated word of the tag: the name of
// the file whose text appears in the body, or "" if the tag is empty.
func (w *Window) FileName() string {
	tag := w.Tag.String()
	if i := strings.IndexAny(tag, " \t"); i >= 0 {
		tag = tag[:i]
	}
	return strings.TrimSuffix(tag, "!")
}

// Dir returns the directory context of the window, derived from the tag
// line: the directory part of the file name ("each command operates in the
// directory appropriate to its operands"). A directory window is its own
// context; a window with no file name contexts at /.
func (w *Window) Dir() string {
	name := w.FileName()
	if name == "" {
		return "/"
	}
	if strings.HasSuffix(name, "/") {
		return vfs.Clean(name)
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return vfs.Clean(name[:i+1])
	}
	return "/"
}

// SetNameTag sets the window tag to a file name followed by the standard
// tag commands. Modified windows additionally show Put! ("the word Put!
// appears in the tag of a modified window").
func (w *Window) SetNameTag(name string) {
	w.setTagLine(name, w.Body.Modified() && !w.IsDir)
}

// RefreshTag re-renders the tag's command section, preserving the name.
func (w *Window) RefreshTag() {
	w.SetNameTag(w.FileName())
}

func (w *Window) setTagLine(name string, modified bool) {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString("\tClose!")
	if modified {
		b.WriteString(" Put!")
	}
	if name != "" && !strings.HasSuffix(name, "/") {
		b.WriteString(" Get!")
	}
	w.Tag.Load(b.String())
	// Editing the tag must not leave a stale selection.
	w.Sel[SubTag] = clampSel(w.Sel[SubTag], w.Tag.Len())
}

func clampSel(s Selection, n int) Selection {
	if s.Q0 < 0 {
		s.Q0 = 0
	}
	if s.Q0 > n {
		s.Q0 = n
	}
	if s.Q1 > n {
		s.Q1 = n
	}
	if s.Q1 < s.Q0 {
		s.Q1 = s.Q0
	}
	return s
}

// Buffer returns the buffer of the given subwindow.
func (w *Window) Buffer(sub int) *text.Buffer {
	if sub == SubTag {
		return w.Tag
	}
	return w.Body
}

// SetSelection sets the selection of a subwindow, clamped to the buffer.
func (w *Window) SetSelection(sub int, q0, q1 int) {
	if q1 < q0 {
		q0, q1 = q1, q0
	}
	w.Sel[sub] = clampSel(Selection{q0, q1}, w.Buffer(sub).Len())
}

// SelectedText returns the text of the subwindow's selection.
func (w *Window) SelectedText(sub int) string {
	s := w.Sel[sub]
	return w.Buffer(sub).Slice(s.Q0, s.Q1-s.Q0)
}

// ShowAddr resolves addr against the body ("help.c:27" positions the
// window so line 27 is visible and selected) and scrolls to it.
func (w *Window) ShowAddr(addr string) error {
	q0, q1, err := w.Body.Address(addr)
	if err != nil {
		return fmt.Errorf("%s: %w", w.FileName(), err)
	}
	w.Sel[SubBody] = Selection{q0, q1}
	w.scrollTo(q0)
	return nil
}

// scrollTo positions the body origin so offset q is visible with context:
// its line lands a third of the way down the displayed body.
func (w *Window) scrollTo(q int) {
	lines := w.visibleBodyRows()
	if lines <= 0 {
		lines = 3
	}
	ln := w.Body.LineAt(q)
	// The end of a newline-terminated buffer resolves to the phantom
	// line after the last newline; clamp so addressing past EOF
	// (file.c:9999) cannot scroll beyond the last real line.
	if max := w.Body.NLines(); ln > max {
		ln = max
	}
	top := ln - lines/3
	if top < 1 {
		top = 1
	}
	w.bodyOrg = w.Body.LineStart(top)
}

// visibleBodyRows estimates how many body rows the window currently shows.
func (w *Window) visibleBodyRows() int {
	if w.col == nil {
		return 0
	}
	return w.col.visibleSpan(w) - 1
}

// Scroll moves the body origin by delta lines (negative scrolls up).
func (w *Window) Scroll(delta int) {
	ln := w.Body.LineAt(w.bodyOrg) + delta
	if ln < 1 {
		ln = 1
	}
	max := w.Body.NLines()
	if ln > max {
		ln = max
	}
	w.bodyOrg = w.Body.LineStart(ln)
}
