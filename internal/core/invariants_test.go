package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/shell"
	"repro/internal/userland"
	"repro/internal/vfs"
)

// checkInvariants asserts the structural invariants that must hold after
// any interaction:
//   - every selection lies within its buffer,
//   - displayed windows in a column have strictly increasing tops,
//   - every displayed window's span is positive and tops lie in the
//     column rectangle,
//   - the rendered screen never panics and has the right dimensions.
func checkInvariants(t *testing.T, h *Help) {
	t.Helper()
	for _, w := range h.Windows() {
		for sub := 0; sub < 2; sub++ {
			sel := w.Sel[sub]
			n := w.Buffer(sub).Len()
			if sel.Q0 < 0 || sel.Q1 < sel.Q0 || sel.Q1 > n {
				t.Fatalf("window %d sub %d: selection %+v out of [0,%d]", w.ID, sub, sel, n)
			}
		}
	}
	for ci := 0; ci < h.Columns(); ci++ {
		col := h.cols[ci]
		prev := -1
		for _, w := range col.displayed() {
			if w.top <= prev {
				t.Fatalf("column %d: tops not strictly increasing (%d after %d)", ci, w.top, prev)
			}
			prev = w.top
			if w.top < col.r.Min.Y || w.top >= col.r.Max.Y {
				t.Fatalf("column %d: top %d outside %v", ci, w.top, col.r)
			}
			if col.visibleSpan(w) < 1 {
				t.Fatalf("column %d: displayed window %d has span %d", ci, w.ID, col.visibleSpan(w))
			}
		}
	}
	h.Render()
	sw, sh := h.Screen().Size()
	if sw <= 0 || sh <= 0 {
		t.Fatal("degenerate screen")
	}
}

// randomWorld builds a small help world for property tests.
func randomWorld(t *testing.T) *Help {
	t.Helper()
	fs := vfs.New()
	fs.MkdirAll("/bin")
	fs.MkdirAll("/f")
	fs.WriteFile("/f/a.txt", []byte(strings.Repeat("alpha beta gamma\n", 8)))
	fs.WriteFile("/f/b.txt", []byte("short\n"))
	sh := shell.New(fs)
	userland.Install(sh)
	return New(fs, sh, 60, 24)
}

// TestRandomEventStormNoPanic feeds thousands of random mouse and
// keyboard events through the full pipeline; nothing may panic and the
// invariants must hold throughout.
func TestRandomEventStormNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomWorld(t)
	h.OpenFile("/f/a.txt", "")
	h.OpenFile("/f/b.txt", "")

	buttons := []int{0, event.Left, event.Middle, event.Right,
		event.Left | event.Middle, event.Left | event.Right}
	keys := []rune{'x', '\n', '\t', '\b', 0x7f, 'é', ' '}
	for i := 0; i < 4000; i++ {
		if rng.Intn(5) == 0 {
			h.Handle(event.KbdEvent(keys[rng.Intn(len(keys))]))
		} else {
			p := geom.Pt(rng.Intn(64)-2, rng.Intn(28)-2)
			h.Handle(event.MouseEvent(event.Mouse{Pt: p, Buttons: buttons[rng.Intn(len(buttons))]}))
		}
		if h.Exited() {
			break
		}
		if i%500 == 0 {
			checkInvariants(t, h)
		}
	}
	// Make sure the machine is not stuck mid-gesture forever: release.
	h.Handle(event.MouseEvent(event.Mouse{Pt: geom.Pt(0, 0), Buttons: 0}))
	checkInvariants(t, h)
	// The event-loop panic guard must not have been masking failures.
	if n := h.PanicCount(); n != 0 {
		t.Fatalf("panic guard recovered %d panics during the storm", n)
	}
}

// TestRandomCommandStormNoPanic executes random command strings — words
// that may or may not be built-ins, paths, globs, shell syntax — against
// random windows.
func TestRandomCommandStormNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomWorld(t)
	w1, _ := h.OpenFile("/f/a.txt", "")
	cmds := []string{
		"Cut", "Paste", "Snarf", "New", "Open", "Open /f/b.txt", "Open /ghost",
		"Open b.txt:2", "Write", "Pattern beta", "Pattern zzz", "Text hello",
		"Undo", "Redo", "Get!", "Put!", "Clone!", "cat a.txt", "grep alpha *.txt",
		"echo hi | sort", "nonsense-cmd", "ls", "", "   ", "Close!",
	}
	for i := 0; i < 400; i++ {
		wins := h.Windows()
		if len(wins) == 0 {
			w1, _ = h.OpenFile("/f/a.txt", "")
			wins = h.Windows()
		}
		w := wins[rng.Intn(len(wins))]
		// Random selection on a random window first.
		if n := w.Body.Len(); n > 0 && rng.Intn(2) == 0 {
			q0 := rng.Intn(n + 1)
			q1 := rng.Intn(n + 1)
			w.SetSelection(SubBody, q0, q1)
			h.SetCurrent(w, SubBody)
		}
		h.Execute(w, cmds[rng.Intn(len(cmds))])
		if h.Exited() {
			t.Fatal("no Exit in the command list, but help exited")
		}
		if i%50 == 0 {
			checkInvariants(t, h)
		}
	}
	_ = w1
	if n := h.PanicCount(); n != 0 {
		t.Fatalf("panic guard recovered %d panics during the storm", n)
	}
}

// TestPlacementInvariantProperty opens random batches of windows with
// random body sizes and checks the heuristic's contract every time.
func TestPlacementInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		h := randomWorld(t)
		for _, sz := range sizes {
			w := h.NewWindowIn(0)
			w.Body.SetString(strings.Repeat("x\n", int(sz%60)))
			h.SetCurrent(w, SubBody)
			// Contract: the newly placed window always has a useful span.
			if span := h.VisibleSpan(w); span < minVisible {
				t.Logf("new window span = %d after %d windows", span, len(h.Windows()))
				return false
			}
		}
		// And globally: displayed windows have positive span, hidden have 0.
		for _, w := range h.Windows() {
			span := h.VisibleSpan(w)
			if w.Hidden() && span != 0 {
				return false
			}
			if !w.Hidden() && span < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSelectionClampProperty: SetSelection never stores out-of-range
// values, whatever is thrown at it.
func TestSelectionClampProperty(t *testing.T) {
	h := randomWorld(t)
	w, _ := h.OpenFile("/f/a.txt", "")
	n := w.Body.Len()
	f := func(q0, q1 int16) bool {
		w.SetSelection(SubBody, int(q0), int(q1))
		sel := w.Sel[SubBody]
		return sel.Q0 >= 0 && sel.Q0 <= sel.Q1 && sel.Q1 <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEditKeepsSelectionsValid: arbitrary buffer edits plus the tag
// refresh never leave a stale selection.
func TestEditKeepsSelectionsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomWorld(t)
	w, _ := h.OpenFile("/f/a.txt", "")
	h.SetCurrent(w, SubBody)
	for i := 0; i < 500; i++ {
		n := w.Body.Len()
		switch rng.Intn(4) {
		case 0:
			w.Body.Insert(rng.Intn(n+1), "zz")
		case 1:
			if n > 0 {
				off := rng.Intn(n)
				w.Body.Delete(off, rng.Intn(n-off+1))
			}
		case 2:
			w.SetSelection(SubBody, rng.Intn(n+1), rng.Intn(n+1))
		case 3:
			h.Cut()
		}
		w.Sel[SubBody] = clampSel(w.Sel[SubBody], w.Body.Len())
		checkInvariants(t, h)
	}
}

// TestMoveWindowEverywhere drags a window to every cell of the screen;
// the layout must stay sane at each drop. With three windows a drop can
// land on one tag while the next sits on the row below, so the nudge
// must cascade down the column.
func TestMoveWindowEverywhere(t *testing.T) {
	h := randomWorld(t)
	w, _ := h.OpenFile("/f/a.txt", "")
	h.OpenFile("/f/b.txt", "")
	h.OpenFile("/f", "")
	for y := -1; y < 26; y++ {
		for x := -1; x < 62; x += 7 {
			h.MoveWindow(w, geom.Pt(x, y))
			checkInvariants(t, h)
		}
	}
}
