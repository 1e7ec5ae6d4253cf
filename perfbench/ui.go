package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
)

// ui drives one core.Help through its public entry points, one span per
// call in a traced pass.
type ui struct {
	h       *core.Help
	m       *meter
	gesture class // the class gestures and keystrokes are timed in
}

func (u *ui) handle(evs []event.Event) {
	u.m.call("core.HandleAll", func() { u.h.HandleAll(evs) })
}

func (u *ui) render() { u.m.call("core.Render", u.h.Render) }

func (u *ui) waitIdle() { u.m.call("core.WaitIdle", u.h.WaitIdle) }

// input is one gesture or keystroke: from HandleAll of its events until
// Render returns. The caller checks the outcome and calls m.end.
func (u *ui) input(name string, evs []event.Event) {
	u.m.begin(u.gesture, name)
	u.handle(evs)
	u.render()
	u.m.stop()
}

// failGesture records a gesture that could not be performed.
func (u *ui) failGesture(name string, err error) { u.m.failAction(u.gesture, name, err) }

// command is one middle-clicked external command: until its output is
// applied (WaitIdle) and repainted.
func (u *ui) command(name string, evs []event.Event) {
	u.m.begin(clsEffect, name)
	u.handle(evs)
	u.waitIdle()
	u.render()
	u.m.stop()
}

// locked runs fn under the actor lock through the apply queue and waits
// for it: the benchmark's own housekeeping, which is not a user action.
func (u *ui) locked(fn func(v core.View)) {
	done := make(chan struct{})
	u.h.Apply(func() {
		fn(u.h.View())
		close(done)
	})
	<-done
}

// bodyRect is the on-screen rectangle of w's body text; ok is false
// when w shows no body row. It reads layout fields, so it may only run
// while no command is live (after WaitIdle).
func (u *ui) bodyRect(w *core.Window) (geom.Rect, bool) {
	if w.Hidden() {
		return geom.Rect{}, false
	}
	span := u.h.VisibleSpan(w)
	col := u.h.ColumnRect(u.h.ColumnIndexOf(w))
	r := geom.Rt(col.Min.X+2, w.Top()+1, col.Max.X, w.Top()+span)
	return r, r.Dy() >= 1 && r.Dx() >= 1
}

// scrollBarX is the column of w's scroll bar.
func (u *ui) scrollBarX(w *core.Window) int {
	return u.h.ColumnRect(u.h.ColumnIndexOf(w)).Min.X + 1
}

// pointIn maps two seeded fractions onto a point of r.
func pointIn(r geom.Rect, fx, fy float64) geom.Point {
	return geom.Pt(r.Min.X+int(fx*float64(r.Dx())), r.Min.Y+int(fy*float64(r.Dy())))
}

// shows reports whether the screen displays s starting at p.
func (u *ui) shows(p geom.Point, s string) bool {
	scr := u.h.Screen()
	for _, r := range s {
		if scr.At(p).R != r {
			return false
		}
		p.X++
	}
	return true
}

// clickTab is one input action: a left click on w's tab, which
// reveals w in its column.
func (u *ui) clickTab(w *core.Window) error {
	tab, ok := u.h.TabPoint(w)
	if !ok {
		return fmt.Errorf("window %d has no tab on screen", w.ID)
	}
	u.input("gesture.tab", event.Click(event.Left, tab))
	u.m.end(nil)
	return nil
}

// reveal returns w's body rectangle once it shows at least rows rows,
// clicking w's tab first when it does not.
func (u *ui) reveal(w *core.Window, rows int) (geom.Rect, error) {
	if r, ok := u.bodyRect(w); ok && r.Dy() >= rows {
		return r, nil
	}
	if err := u.clickTab(w); err != nil {
		return geom.Rect{}, err
	}
	if r, ok := u.bodyRect(w); ok && r.Dy() >= rows {
		return r, nil
	}
	return geom.Rect{}, fmt.Errorf("window %d shows fewer than %d body rows after a tab click", w.ID, rows)
}

// locateBody finds substr on screen in w's body, clicking w's tab first
// if it is not. Only for small bodies: FindBody materializes the body.
func (u *ui) locateBody(w *core.Window, substr string) (geom.Point, error) {
	find := func() (geom.Point, bool) {
		r, ok := u.bodyRect(w)
		if !ok {
			return geom.Point{}, false
		}
		// A covered window keeps its last frame, so the benchmark, like a
		// user, only clicks where the screen shows the text.
		p, ok := u.h.FindBody(w, substr)
		return p, ok && p.In(r) && u.shows(p, substr)
	}
	if p, ok := find(); ok {
		return p, nil
	}
	if err := u.clickTab(w); err != nil {
		return geom.Point{}, err
	}
	if p, ok := find(); ok {
		return p, nil
	}
	return geom.Point{}, fmt.Errorf("%q not on screen in window %d", substr, w.ID)
}

// locateTag finds substr in w's tag, clicking w's tab first if needed.
func (u *ui) locateTag(w *core.Window, substr string) (geom.Point, error) {
	find := func() (geom.Point, bool) {
		if w.Hidden() || u.h.VisibleSpan(w) < 1 {
			return geom.Point{}, false
		}
		p, ok := u.h.FindTag(w, substr)
		if substr == "" {
			substr = w.Tag.Slice(0, 1)
		}
		return p, ok && p.Y == w.Top() && u.shows(p, substr)
	}
	if p, ok := find(); ok {
		return p, nil
	}
	if err := u.clickTab(w); err != nil {
		return geom.Point{}, err
	}
	if p, ok := find(); ok {
		return p, nil
	}
	return geom.Point{}, fmt.Errorf("%q not in the tag of window %d", substr, w.ID)
}
