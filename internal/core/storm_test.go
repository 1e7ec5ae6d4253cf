package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/notify"
	"repro/internal/world"
)

// TestJournalStormRecovers drives a seeded storm through a journaled
// session: mouse and key events, built-ins and external commands,
// writes to the /mnt/help body, bodyapp, tag and ctl files, opens and
// closes. After each interaction, once the session is idle, the windows
// that got a body event on the bus must be exactly the windows with a
// body splice journaled in that interaction, leaving out windows it
// closed: the bus and the journal describe the same edits. Every 50
// interactions, with all buttons released, the journal must recover
// into a fresh world equal to the live one.
func TestJournalStormRecovers(t *testing.T) {
	const steps = 1000
	rng := rand.New(rand.NewSource(1))
	w := stormWorld(t)
	h := w.Help
	jfs := journal.NewMemFS()
	jw, err := journal.Open(jfs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	h.AttachJournal(jw, 1<<20)
	sub := h.Notify.Subscribe(0, 0)
	defer sub.Close()
	files := []string{"help.c", "exec.c", "text.c", ""} // "": the directory
	for _, f := range files[:2] {
		if _, err := h.OpenFile(world.SrcDir+"/"+f, ""); err != nil {
			t.Fatal(err)
		}
	}

	var lastGen uint64
	edits := 0 // interactions with a body edit, so the check is not vacuous
	settle := func(step int, what string) {
		t.Helper()
		h.WaitIdle()
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := journal.Load(jfs)
		if err != nil {
			t.Fatal(err)
		}
		spliced, evented, closed := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for _, op := range st.Ops {
			switch {
			case op.Gen <= lastGen:
			case op.Kind == journal.OpSplice && op.Sub == core.SubBody:
				spliced[op.Win] = true
			case op.Kind == journal.OpCloseWin:
				closed[op.Win] = true
			}
		}
		lastGen = st.MaxGen
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			switch ev.Kind {
			case "body":
				evented[ev.Window] = true
			case "del":
				closed[ev.Window] = true
			case notify.KindGap:
				t.Fatalf("step %d (%s): the bus lapped the test's cursor", step, what)
			}
		}
		for id := range closed {
			delete(spliced, id)
			delete(evented, id)
		}
		if !maps.Equal(spliced, evented) {
			t.Fatalf("step %d (%s): body events for windows %v, body splices journaled for %v",
				step, what, evented, spliced)
		}
		if len(evented) > 0 {
			edits++
		}
	}
	settle(-1, "open")

	buttons := []int{0, event.Left, event.Middle, event.Right,
		event.Left | event.Middle, event.Left | event.Right}
	keys := []rune{'x', '\n', '\t', '\b', 0x7f, 'é', ' '}
	builtins := []string{"Cut", "Paste", "Snarf", "Undo", "Redo", "Get!", "Put!",
		"Clone!", "New", "Pattern main", "Text storm", "Open", "Close!"}
	externals := []string{"echo storm", "cat help.c", "grep main help.c", "ls", "nonsense-cmd"}
	sw, sh := h.Screen().Size()
	for step := 0; step < steps; step++ {
		wins := h.Windows()
		if len(wins) == 0 {
			if _, err := h.OpenFile(world.SrcDir+"/text.c", ""); err != nil {
				t.Fatal(err)
			}
			settle(step, "reopen")
			wins = h.Windows()
		}
		win := wins[rng.Intn(len(wins))]
		what := ""
		switch k := rng.Intn(20); {
		case k < 7:
			m := event.Mouse{Pt: geom.Pt(rng.Intn(sw), rng.Intn(sh)), Buttons: buttons[rng.Intn(len(buttons))]}
			what = fmt.Sprintf("mouse %v %d", m.Pt, m.Buttons)
			h.Handle(event.MouseEvent(m))
		case k < 9:
			r := keys[rng.Intn(len(keys))]
			what = fmt.Sprintf("key %q", r)
			h.Handle(event.KbdEvent(r))
		case k < 12:
			what = builtins[rng.Intn(len(builtins))]
			h.Execute(win, what)
		case k < 14:
			what = externals[rng.Intn(len(externals))]
			h.Execute(win, what)
		case k < 18:
			what = stormFileWrite(t, h, rng, win.ID, step)
		case k < 19:
			f := world.SrcDir + "/" + files[rng.Intn(len(files))]
			what = "open " + f
			h.OpenFile(f, fmt.Sprint(rng.Intn(20)))
		default:
			what = fmt.Sprintf("close %d", win.ID)
			h.Execute(win, "Close!")
		}
		if h.Exited() {
			t.Fatalf("step %d (%s): the session exited", step, what)
		}
		settle(step, what)
		if step%50 != 49 {
			continue
		}
		h.Handle(event.MouseEvent(event.Mouse{Pt: geom.Pt(0, 0)}))
		settle(step, "release")
		want := core.Fingerprint(h)
		w2 := stormWorld(t)
		if _, err := core.RecoverSession(w2.Help, jfs); err != nil {
			t.Fatalf("step %d: recovery failed: %v", step, err)
		}
		if got := core.Fingerprint(w2.Help); got != want {
			t.Fatalf("step %d: recovered session differs\n--- live ---\n%s\n--- recovered ---\n%s", step, want, got)
		}
	}
	if edits < steps/10 {
		t.Fatalf("only %d of %d interactions edited a body", edits, steps)
	}
	if n := h.PanicCount(); n != 0 {
		t.Fatalf("the storm recovered %d panics", n)
	}
}

func stormWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.Build(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// stormFileWrite writes one of window id's /mnt/help files through the
// serialized namespace, as a remote tool would, and names what it did.
// A write may fail (a ctl message for a window an earlier message
// closed); the storm only needs the session to stay consistent.
func stormFileWrite(t *testing.T, h *core.Help, rng *rand.Rand, id, step int) string {
	t.Helper()
	fs := h.SafeFS()
	dir := fmt.Sprintf("%s/%d/", world.MountRoot, id)
	switch rng.Intn(5) {
	case 0:
		fs.WriteFile(dir+"body", []byte(fmt.Sprintf("storm body %d\nsecond line\n", step)))
		return "write body"
	case 1:
		fs.AppendFile(dir+"bodyapp", []byte(fmt.Sprintf("appended %d\n", step)))
		return "write bodyapp"
	case 2:
		fs.WriteFile(dir+"tag", []byte(fmt.Sprintf("/tmp/storm%d\tClose!", step)))
		return "write tag"
	case 3:
		f, err := fs.Open(world.MountRoot+"/new/ctl", 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return "open new/ctl"
	}
	msgs := []string{"name /tmp/stormname", "clean", "dirty", "show 2", "select 0 5", "delete"}
	msg := msgs[rng.Intn(len(msgs))]
	fs.WriteFile(dir+"ctl", []byte(msg+"\n"))
	return "ctl " + msg
}
