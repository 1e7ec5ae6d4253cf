package core

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/text"
)

// barString renders w's scroll bar into a rows-tall gutter at the screen
// origin and returns it as a string: '#' for the bar, '.' for the trough.
func barString(h *Help, w *Window, rows int) string {
	h.screen.Clear()
	h.renderScrollBar(w, geom.Rt(0, 0, 1, rows))
	var b strings.Builder
	for y := 0; y < rows; y++ {
		if h.screen.At(geom.Pt(0, y)).R == '█' {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// bodyOfLines gives w a body of exactly n lines and scrolls to topLine.
func bodyOfLines(w *Window, n, topLine int) {
	w.Body = text.NewBuffer(strings.Repeat("line\n", n))
	w.bodyOrg = w.Body.LineStart(topLine)
}

// Golden scroll-bar geometry. The extent must show the visible fraction
// of the body and never overflow the gutter; short buffers fill it
// exactly. rows²/total (the old extent) overflowed for total < rows and
// then pinned the bar top wrongly near the end of the buffer.
func TestScrollBarGeometry(t *testing.T) {
	const rows = 10
	h, _ := world(t)
	w := h.NewWindow()
	cases := []struct {
		total, topLine int
		want           string
	}{
		{1, 1, "##########"},          // total = 1: everything visible
		{rows - 1, 1, "##########"},   // total = rows-1
		{rows, 1, "##########"},       // total = rows: exactly fills
		{10 * rows, 1, "#........."},  // total = 10·rows: 1/10 visible at top
		{10 * rows, 51, ".....#...."}, // mid-file: position = origin fraction
		{10 * rows, 96, ".........#"}, // near EOF: 5 lines left, bar pinned low
		{15, 11, "......###."},        // total>rows, tail shorter than a screen:
		// 5 of 15 lines visible from line 11 — extent 3, not the old 6.
	}
	for _, c := range cases {
		bodyOfLines(w, c.total, c.topLine)
		if got := barString(h, w, rows); got != c.want {
			t.Errorf("total=%d topLine=%d: bar %q, want %q", c.total, c.topLine, got, c.want)
		}
	}
}

func TestScrollBarNeverLongerThanGutter(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	for _, rows := range []int{1, 2, 3, 7, 10} {
		for total := 1; total <= 3*rows; total++ {
			for top := 1; top <= total; top++ {
				bodyOfLines(w, total, top)
				bar := barString(h, w, rows)
				n := strings.Count(bar, "#")
				if n < 1 || n > rows {
					t.Fatalf("rows=%d total=%d top=%d: bar extent %d out of [1,%d] (%q)",
						rows, total, top, n, rows, bar)
				}
			}
		}
	}
}

// assertIncrementalRender renders incrementally, then forces a full
// repaint and checks both produce the identical screen — the soundness
// property of the per-column damage signatures.
func assertIncrementalRender(t *testing.T, h *Help) {
	t.Helper()
	h.Render()
	text, attrs := h.screen.String(), h.screen.AttrString()
	h.rendered = false // invalidate the cache: next Render repaints fully
	h.Render()
	if h.screen.String() != text {
		t.Fatalf("incremental render diverged from full render:\nincremental:\n%s\nfull:\n%s",
			text, h.screen.String())
	}
	if h.screen.AttrString() != attrs {
		t.Fatalf("incremental render attrs diverged from full render:\nincremental:\n%s\nfull:\n%s",
			attrs, h.screen.AttrString())
	}
}

// TestRenderIncrementalEquivalence walks a window through every kind of
// state change the damage signature must notice, comparing the
// incremental repaint against a forced full repaint at each step.
func TestRenderIncrementalEquivalence(t *testing.T) {
	h, _ := world(t)
	assertIncrementalRender(t, h)

	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	assertIncrementalRender(t, h) // window appeared

	w.Body.Insert(0, "edited\n")
	assertIncrementalRender(t, h) // body edit

	w.SetSelection(SubBody, 0, 6)
	h.SetCurrent(w, SubBody)
	assertIncrementalRender(t, h) // selection + current ownership

	w2, err := h.OpenFile("/usr/rob/src/help/dat.h", "")
	if err != nil {
		t.Fatal(err)
	}
	h.SetCurrent(w2, SubTag)
	assertIncrementalRender(t, h) // current moved to another window

	w.Scroll(2)
	assertIncrementalRender(t, h) // scroll changes origin only

	h.sweepExec = &execSweep{win: w2, sub: SubTag, q0: 0, q1: 3}
	assertIncrementalRender(t, h) // live exec sweep underlines

	h.sweepExec = nil
	assertIncrementalRender(t, h) // sweep ended: underline must vanish

	h.MoveWindowToColumn(w2, 1)
	assertIncrementalRender(t, h) // window moved between columns

	w.Body.Undo()
	assertIncrementalRender(t, h) // undo edits content too

	h.ExpandColumn(1)
	assertIncrementalRender(t, h) // column geometry change forces full

	h.CloseWindow(w2)
	assertIncrementalRender(t, h) // window closed

	h.Errors() // creates the Errors window
	h.AppendErrors("something happened\n")
	assertIncrementalRender(t, h)
}

// TestRenderReusesFrames checks that an unchanged window keeps its laid
// out frame across redraws (the damage fast path) and drops it the moment
// its buffer changes.
func TestRenderReusesFrames(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Render()
	f1 := w.bodyFrame
	if f1 == nil {
		t.Fatal("no body frame after render")
	}
	h.Render()
	if w.bodyFrame != f1 {
		t.Error("unchanged window relaid out its frame")
	}
	w.Body.Insert(0, "x")
	h.Render()
	if got := h.screen.String(); !strings.Contains(got, "x#include") {
		t.Errorf("stale render after edit:\n%s", got)
	}
}

// TestRenderUndoCleansTag: undoing the only edit must remove Put! from
// the tag on the next refresh, not keep offering to write an unchanged
// file.
func TestRenderUndoCleansTag(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(w.Tag.String(), "Put!") {
		t.Fatal("fresh window already offers Put!")
	}
	w.Body.Insert(0, "zzz")
	w.Body.Commit()
	w.RefreshTag()
	if !strings.Contains(w.Tag.String(), "Put!") {
		t.Fatal("edited window must offer Put!")
	}
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Undo")
	if strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("undo back to clean state left Put! in tag %q", w.Tag.String())
	}
}
