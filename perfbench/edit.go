package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/world"
)

// The edit workload is the paper's own session, run locally and
// journaled: nearly all its time lands in event, core, text (gap
// buffer), frame/draw and journal, and in shell/userland through the
// apply queue; none lands in srvnet, sessiond or paged text.

const (
	notesPath  = "/usr/rob/tmp/notes"       // the user's scratch file, typed into
	cmdsPath   = world.SrcDir + "/commands" // a tool file of commands to middle-click
	srcFile    = world.SrcDir + "/exec.c"   // its line 213 holds the variable n the browser is asked about
	scrollFile = world.SrcDir + "/help.c"   // scrolled through its scroll bar
	openFile   = world.SrcDir + "/text.c"   // opened by "Open text.c:32" and closed again

	// editRoundsPerSecond sizes the fixed sequence so that a run takes
	// about --seconds on a 2-vCPU VM in its slower speed state (half of
	// that in its faster one); the sequence, not the clock, ends the
	// run, so every run repeats the same checkpoints and GC cycles.
	editRoundsPerSecond = 110
)

// grepPatterns are the words the commands file greps for; each is a
// literal, so the expected output follows from the sources alone.
var grepPatterns = []string{"lookup", "Text", "argv"}

var commandsText = "grep -n lookup *.c\ngrep -n Text *.c\ngrep -n argv *.c\nOpen text.c:32\n176153\n"

type editKind int

const (
	eClick   editKind = iota // left click in a body
	eSweep                   // left sweep in a body
	eChord                   // left sweep with the Cut then Paste chord
	eType                    // click, type a word, then backspace it or Put! and Undo
	eTab                     // click a window's tab
	eScroll                  // click in a scroll bar
	eDrag                    // right-button drag of a tool window's tag
	eOpen                    // middle-click "Open text.c:32", then Close! it
	eGrep                    // middle-click a grep -n over *.c
	eUses                    // point at n, middle-click cbr "uses *.c"
	eDecl                    // point at n, middle-click cbr "decl"
	eStack                   // point at the broken pid, middle-click db "stack"
	eHeaders                 // middle-click mail "headers"
	eReset                   // end of round: clear Errors, reset the notes, close tool windows
)

// editRound is one round of the mix; rounds are shuffled by the seed and
// each ends with eReset, which keeps an action's cost independent of how
// long the run has gone on. The counts follow the paper's debugging
// session as session.RunDebugSession replays it: seven left clicks
// (four here, three inside uses, decl and stack), five middle-clicked
// tools (headers, stack and uses as there; decl and grep -n stand in
// for messages and mk), four Opens, one chorded Cut (Cut then Paste
// here, so the text stays) and one Put!. Each Open is closed again with
// Close!. The session never sweeps, types, clicks a tab or a scroll bar
// or drags, so those come once a round, and typing twice: one word
// backspaced, one written with Put! and taken back with Undo.
var editRound = []struct {
	kind editKind
	n    int
}{
	{eClick, 4}, {eChord, 1}, {eOpen, 4},
	{eGrep, 1}, {eUses, 1}, {eDecl, 1}, {eStack, 1}, {eHeaders, 1},
	{eSweep, 1}, {eType, 2}, {eTab, 1}, {eScroll, 1}, {eDrag, 1},
}

type editStep struct {
	kind editKind
	f    [4]float64 // seeded fractions, mapped onto the live geometry
	n    int        // seeded variant
	word string     // text to type
	put  bool       // eType: take the word back by Put! and Undo, not by backspacing
}

type editLoad struct {
	notesText string
	script    []editStep

	// Set-up state.
	w                               *world.World
	u                               *ui
	cs                              *checks
	jfs                             *journal.MemFS
	jw                              *journal.Writer
	model                           string // what the notes body must hold
	stable                          map[*core.Window]bool
	notes, cmds, src, scroll        *core.Window
	editStf, cbrStf, dbStf, mailStf *core.Window
	boot, errors                    *core.Window
	grepWant                        map[string]string
	toolWant                        map[editKind]string
}

func newEdit(cfg config) *editLoad {
	rng := rand.New(rand.NewSource(cfg.seed))
	words := strings.Fields("alpha beta gamma delta eps zeta eta theta iota kappa lambda mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega")
	var nb strings.Builder
	for i := 0; i < 24; i++ {
		n := 2 + rng.Intn(4)
		for j := 0; j < n; j++ {
			if j > 0 {
				nb.WriteByte(' ')
			}
			nb.WriteString(words[rng.Intn(len(words))])
		}
		nb.WriteByte('\n')
	}
	e := &editLoad{notesText: nb.String()}
	rounds := cfg.seconds * editRoundsPerSecond
	for r := 0; r < rounds; r++ {
		var round []editStep
		for _, k := range editRound {
			for i := 0; i < k.n; i++ {
				st := editStep{kind: k.kind, n: rng.Intn(1 << 20), put: i%2 == 1}
				for j := range st.f {
					st.f[j] = rng.Float64()
				}
				if k.kind == eType {
					wl := 3 + rng.Intn(4)
					b := make([]byte, wl)
					for j := range b {
						b[j] = byte('a' + rng.Intn(26))
					}
					st.word = string(b)
				}
				round = append(round, st)
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		e.script = append(e.script, round...)
		e.script = append(e.script, editStep{kind: eReset})
	}
	return e
}

func (e *editLoad) setups() int       { return 15 }
func (e *editLoad) steps() int        { return len(e.script) }
func (e *editLoad) speedProbe() probe { return hostProbe }

func (e *editLoad) registries() []*obs.Registry { return []*obs.Registry{e.w.Help.Obs} }
func (e *editLoad) extras() map[string]float64  { return nil }

func (e *editLoad) setUp(m *meter, cs *checks) error {
	w, err := world.Build(120, 60)
	if err != nil {
		return err
	}
	if err := w.Boot(); err != nil {
		return err
	}
	e.w, e.cs = w, cs
	h := w.Help
	if err := w.FS.WriteFile(notesPath, []byte(e.notesText)); err != nil {
		return err
	}
	if err := w.FS.WriteFile(cmdsPath, []byte(commandsText)); err != nil {
		return err
	}
	open := func(name, addr string, col int) (*core.Window, error) {
		win, err := h.OpenFile(name, addr)
		if err != nil {
			return nil, err
		}
		h.MoveWindowToColumn(win, col)
		return win, nil
	}
	if e.scroll, err = open(scrollFile, "", 0); err != nil {
		return err
	}
	if e.src, err = open(srcFile, "213", 0); err != nil {
		return err
	}
	if e.cmds, err = open(cmdsPath, "", 0); err != nil {
		return err
	}
	if e.notes, err = open(notesPath, "", 0); err != nil {
		return err
	}
	e.model = e.notes.Body.String()
	win := func(name string) *core.Window { return h.WindowByName(name) }
	e.editStf, e.cbrStf, e.dbStf, e.mailStf = win("/help/edit/stf"), win("/help/cbr/stf"), win("/help/db/stf"), win("/help/mail/stf")
	e.errors = h.Errors()
	e.boot = h.Window(1)
	e.stable = map[*core.Window]bool{}
	for _, x := range h.Windows() {
		e.stable[x] = true
	}
	e.layout()

	e.jfs = journal.NewMemFS()
	if e.jw, err = journal.Open(e.jfs, journal.Config{}); err != nil {
		return err
	}
	h.AttachJournal(e.jw, 0)
	h.Render()

	if e.grepWant, err = expectGrep(w); err != nil {
		return err
	}
	// Warm-up: run each browser and debugger tool once and keep its
	// output, which every later run of the tool must reproduce.
	e.u = &ui{h: h, m: &meter{}, gesture: clsInput}
	e.toolWant = map[editKind]string{}
	warm := &checks{}
	for _, k := range []editKind{eUses, eDecl, eStack, eHeaders} {
		e.cs = warm
		e.do(editStep{kind: k})
		if e.u.m.failed > 0 {
			return fmt.Errorf("warm-up %d: %v", k, e.u.m.firstErr)
		}
	}
	e.do(editStep{kind: eReset})
	e.cs = cs
	e.u.m = m
	return nil
}

// expectGrep computes, from the sources, what grep -n must print for
// each pattern.
func expectGrep(w *world.World) (map[string]string, error) {
	ents, err := w.FS.ReadDir(world.SrcDir)
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	for _, pat := range grepPatterns {
		var b strings.Builder
		for _, ent := range ents {
			if ent.IsDir || !strings.HasSuffix(ent.Name, ".c") {
				continue
			}
			data, err := w.FS.ReadFile(world.SrcDir + "/" + ent.Name)
			if err != nil {
				return nil, err
			}
			for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
				if strings.Contains(line, pat) {
					fmt.Fprintf(&b, "%s:%d:%s\n", ent.Name, i+1, line)
				}
			}
		}
		if b.Len() == 0 {
			return nil, fmt.Errorf("grep pattern %q matches nothing", pat)
		}
		want[pat] = b.String()
	}
	return want, nil
}

func (e *editLoad) step(i int) { e.do(e.script[i]) }

func (e *editLoad) do(st editStep) {
	u, h := e.u, e.w.Help
	switch st.kind {
	case eClick, eSweep:
		targets := []*core.Window{e.notes, e.src, e.scroll, e.cmds}
		win := targets[st.n%len(targets)]
		r, err := u.reveal(win, 1)
		if err != nil {
			u.failGesture("gesture.click", err)
			return
		}
		p0 := pointIn(r, st.f[0], st.f[1])
		if st.kind == eClick {
			u.input("gesture.click", event.Click(event.Left, p0))
		} else {
			u.input("gesture.sweep", event.Sweep(event.Left, p0, pointIn(r, st.f[2], st.f[3])))
		}
		u.m.end(nil)

	case eChord:
		start, _, line, err := e.notesLine(st.f[0])
		if err == nil && len(line) == 0 {
			err = fmt.Errorf("empty notes line")
		}
		if err != nil {
			u.failGesture("gesture.chord", err)
			return
		}
		c0 := int(st.f[1] * float64(len(line)))
		c1 := c0 + 1 + int(st.f[2]*float64(len(line)-c0))
		if c1 > len(line) {
			c1 = len(line)
		}
		u.input("gesture.chord", event.SweepChord(event.Left,
			geom.Pt(start.X+c0, start.Y), geom.Pt(start.X+c1, start.Y), event.Middle, event.Right))
		var cerr error
		if e.notes.Body.String() != e.model {
			cerr = fmt.Errorf("cut and paste changed the notes")
		} else if got := h.Snarf(); got != line[c0:c1] {
			cerr = fmt.Errorf("snarfed %q, swept %q", got, line[c0:c1])
		}
		u.m.end(e.cs.note("chorded cut and paste restores the text", cerr))

	case eType:
		e.typeWord(st)

	case eTab:
		all := []*core.Window{e.notes, e.src, e.scroll, e.cmds, e.editStf, e.cbrStf, e.dbStf, e.mailStf}
		if err := u.clickTab(all[st.n%len(all)]); err != nil {
			u.failGesture("gesture.tab", err)
		}

	case eScroll:
		r, err := u.reveal(e.scroll, 2)
		if err != nil {
			u.failGesture("gesture.scroll", err)
			return
		}
		buttons := []int{event.Left, event.Right, event.Middle}
		p := geom.Pt(u.scrollBarX(e.scroll), r.Min.Y+int(st.f[0]*float64(r.Dy())))
		u.input("gesture.scroll", event.Click(buttons[st.n%3], p))
		u.m.end(nil)

	case eDrag:
		tools := []*core.Window{e.editStf, e.cbrStf, e.dbStf, e.mailStf}
		win := tools[st.n%len(tools)]
		p, err := u.locateTag(win, "")
		if err != nil {
			u.failGesture("gesture.drag", err)
			return
		}
		// Drop the tag in the column's upper half, so a later tab click
		// shows the whole tool again, and on a body row: dropping it on
		// another window's tag row can stack two windows on one row,
		// after which clicks reach the covered one (see README.md).
		col := h.ColumnRect(h.ColumnIndexOf(win))
		tags := map[int]bool{}
		for _, x := range h.Windows() {
			if !x.Hidden() && h.ColumnIndexOf(x) == h.ColumnIndexOf(win) {
				tags[x.Top()] = true
			}
		}
		var rows []int
		for y := col.Min.Y; y < col.Min.Y+col.Dy()/2; y++ {
			if !tags[y] {
				rows = append(rows, y)
			}
		}
		if len(rows) == 0 {
			u.failGesture("gesture.drag", fmt.Errorf("no free row to drop a tag on"))
			return
		}
		to := geom.Pt(p.X, rows[int(st.f[0]*float64(len(rows)))])
		u.input("gesture.drag", event.Drag(event.Right, p, to))
		u.m.end(nil)

	case eOpen:
		e.openAndClose()

	case eGrep:
		pat := grepPatterns[st.n%len(grepPatterns)]
		line := "grep -n " + pat + " *.c"
		u.locked(func(core.View) { e.errors.Body.Load("") })
		p0, err := u.locateBody(e.cmds, line)
		if err != nil {
			u.m.failAction(clsEffect, "command.grep", err)
			return
		}
		u.command("command.grep", event.Sweep(event.Middle, p0, geom.Pt(p0.X+len(line), p0.Y)))
		var err2 error
		if got := h.ErrorsText(); got != e.grepWant[pat] {
			err2 = fmt.Errorf("grep -n %s: Errors holds %d lines, the sources give %d",
				pat, strings.Count(got, "\n"), strings.Count(e.grepWant[pat], "\n"))
		}
		u.m.end(e.cs.note("grep -n output in Errors matches the sources", err2))

	case eUses, eDecl, eStack, eHeaders:
		e.tool(st.kind)

	case eReset:
		u.locked(func(v core.View) {
			e.errors.Body.Load("")
			e.notes.Body.Load(e.notesText)
			for _, x := range v.Windows() {
				if !e.stable[x] {
					v.CloseWindow(x)
				}
			}
		})
		e.model = e.notesText
		e.layout()
	}
}

// layout puts every window of the session back where set-up placed it,
// giving each the rows its actions need: the benchmark's housekeeping at
// the end of a round, not a user action.
func (e *editLoad) layout() {
	h := e.w.Help
	at := func(w *core.Window, col, top int) {
		h.MoveWindow(w, geom.Pt(h.ColumnRect(col).Min.X+1, top))
	}
	at(e.boot, 0, 1)
	at(e.scroll, 0, 3)
	at(e.src, 0, 15)
	at(e.cmds, 0, 27)
	at(e.notes, 0, 34)
	at(e.editStf, 1, 1)
	at(e.cbrStf, 1, 9)
	at(e.dbStf, 1, 12)
	at(e.mailStf, 1, 15)
	at(e.errors, 1, 18)
	h.Render()
}

// notesLine picks a visible line of the notes body using only the
// benchmark's model of the text and the frame geometry (no lines wrap): it
// returns the screen point of the line's first column, the model offset
// of that column, and the line's text.
func (e *editLoad) notesLine(fy float64) (geom.Point, int, string, error) {
	r, err := e.u.reveal(e.notes, 1)
	if err != nil {
		return geom.Point{}, 0, "", err
	}
	org := e.notes.BodyOrigin()
	if org > len(e.model) {
		return geom.Point{}, 0, "", fmt.Errorf("notes origin %d past the model's end", org)
	}
	lines := strings.Split(e.model[org:], "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	rows := r.Dy()
	if len(lines) < rows {
		rows = len(lines)
	}
	if rows == 0 {
		return geom.Point{}, 0, "", fmt.Errorf("no notes line on screen")
	}
	row := int(fy * float64(rows))
	off := org
	for _, l := range lines[:row] {
		off += len(l) + 1
	}
	if len(lines[row]) >= r.Dx() {
		return geom.Point{}, 0, "", fmt.Errorf("notes line wider than the frame")
	}
	return geom.Pt(r.Min.X, r.Min.Y+row), off, lines[row], nil
}

// typeWord clicks a spot in the notes, types a word there one keystroke
// at a time, and takes it away again: by backspacing, or by Put! and
// then a middle-clicked Undo. Each keystroke is an action, and the body
// is checked against the model after the word and after its removal.
func (e *editLoad) typeWord(st editStep) {
	u, h := e.u, e.w.Help
	start, off, line, err := e.notesLine(st.f[0])
	if err != nil {
		u.failGesture("gesture.click", err)
		return
	}
	col := int(st.f[1] * float64(len(line)+1))
	if col > len(line) {
		col = len(line)
	}
	off += col
	u.input("gesture.click", event.Click(event.Left, geom.Pt(start.X+col, start.Y)))
	var cerr error
	if sel := e.notes.Sel[core.SubBody]; sel != (core.Selection{Q0: off, Q1: off}) {
		cerr = fmt.Errorf("click selected %v, the model says %d", sel, off)
	}
	u.m.end(e.cs.note("clicks land where the model says", cerr))
	if cerr != nil {
		return
	}
	before := e.model
	e.model = before[:off] + st.word + before[off:]
	for i, r := range st.word {
		u.input("keystroke", []event.Event{event.KbdEvent(r)})
		if i < len(st.word)-1 {
			u.m.end(nil)
			continue
		}
		var err error
		if got := e.notes.Body.String(); got != e.model {
			err = fmt.Errorf("after typing %q at %d the notes differ from the model: %s", st.word, off, firstDiff(got, e.model))
		}
		u.m.end(e.cs.note("keystrokes land where the model says", err))
	}
	if !st.put {
		e.model = before
		for i := range st.word {
			u.input("keystroke.backspace", []event.Event{event.KbdEvent('\b')})
			if i < len(st.word)-1 {
				u.m.end(nil)
				continue
			}
			var err error
			if got := e.notes.Body.String(); got != e.model {
				err = fmt.Errorf("backspacing %q at %d left the notes differing from the model", st.word, off)
			}
			u.m.end(e.cs.note("backspaces delete what was typed", err))
		}
		return
	}
	if tp, err := u.locateTag(e.notes, "Put!"); err != nil {
		u.failGesture("gesture.put", err)
	} else {
		u.input("gesture.put", event.Click(event.Middle, geom.Pt(tp.X+1, tp.Y)))
		var err error
		if data, rerr := h.SafeFS().ReadFile(notesPath); rerr != nil {
			err = rerr
		} else if string(data) != e.model {
			err = fmt.Errorf("Put! wrote %d bytes, the model holds %d", len(data), len(e.model))
		}
		u.m.end(e.cs.note("Put! writes the body to the file", err))
	}
	e.model = before
	up, err := u.locateBody(e.editStf, "Undo")
	if err != nil {
		u.failGesture("gesture.undo", err)
		return
	}
	u.input("gesture.undo", event.Click(event.Middle, geom.Pt(up.X+1, up.Y)))
	var uerr error
	if got := e.notes.Body.String(); got != e.model {
		uerr = fmt.Errorf("Undo of %q at %d left the notes differing from the model", st.word, off)
	}
	u.m.end(e.cs.note("Undo removes what was typed", uerr))
}

// openAndClose middle-clicks "Open text.c:32" (an open action, until
// the new window is painted) and then Close! in the new window's tag.
func (e *editLoad) openAndClose() {
	u, h := e.u, e.w.Help
	const cmd = "Open text.c:32"
	p0, err := u.locateBody(e.cmds, cmd)
	if err != nil {
		u.m.failAction(clsOpen, "open", err)
		return
	}
	u.m.begin(clsOpen, "open")
	u.handle(event.Sweep(event.Middle, p0, geom.Pt(p0.X+len(cmd), p0.Y)))
	u.render()
	u.m.stop()
	win := h.WindowByName(openFile)
	if win == nil {
		u.m.end(e.cs.note("Open opens the file", fmt.Errorf("no window for %s after Open", openFile)))
		return
	}
	var oerr error
	if want, rerr := h.SafeFS().ReadFile(openFile); rerr != nil {
		oerr = rerr
	} else if win.Body.String() != string(want) {
		oerr = fmt.Errorf("opened body differs from %s", openFile)
	}
	u.m.end(e.cs.note("Open opens the file", oerr))
	cp, err := u.locateTag(win, "Close!")
	if err != nil {
		u.failGesture("gesture.close", err)
		return
	}
	u.input("gesture.close", event.Click(event.Middle, geom.Pt(cp.X+1, cp.Y)))
	var cerr error
	if h.WindowByName(openFile) != nil {
		cerr = fmt.Errorf("%s still open after Close!", openFile)
	}
	u.m.end(e.cs.note("Close! closes the window", cerr))
}

// tool runs one browser, debugger or mail tool the way the paper does:
// point at the argument with the left button if the tool needs one,
// then middle-click the tool's word. The tool's window must hold what
// it held in the warm-up; it is then closed.
func (e *editLoad) tool(k editKind) {
	u := e.u
	name := map[editKind]string{eUses: "uses", eDecl: "decl", eStack: "stack", eHeaders: "headers"}[k]
	var point func() (geom.Point, error)
	switch k {
	case eUses, eDecl:
		point = func() (geom.Point, error) { return u.locateBody(e.src, "n = 0") }
	case eStack:
		point = func() (geom.Point, error) {
			p, err := u.locateBody(e.cmds, "176153")
			p.X++
			return p, err
		}
	}
	if point != nil {
		p, err := point()
		if err != nil {
			u.failGesture("gesture.click", err)
			return
		}
		u.input("gesture.click", event.Click(event.Left, p))
		u.m.end(nil)
	}
	stf := map[editKind]*core.Window{eUses: e.cbrStf, eDecl: e.cbrStf, eStack: e.dbStf, eHeaders: e.mailStf}[k]
	p, err := u.locateBody(stf, name)
	if err != nil {
		u.m.failAction(clsEffect, "command."+name, err)
		return
	}
	evs := event.Click(event.Middle, geom.Pt(p.X+1, p.Y))
	if k == eUses {
		evs = event.Sweep(event.Middle, p, geom.Pt(p.X+len("uses *.c"), p.Y))
	}
	u.command("command."+name, evs)
	out, werr := e.toolWindow(k)
	if werr == nil {
		if want, ok := e.toolWant[k]; !ok {
			e.toolWant[k] = out.Body.String()
		} else if got := out.Body.String(); got != want {
			werr = fmt.Errorf("%s printed %d bytes, the warm-up %d", name, len(got), len(want))
		}
	}
	u.m.end(e.cs.note("tool output reaches its window", werr))
	if out != nil {
		u.locked(func(v core.View) { v.CloseWindow(out) })
	}
}

// toolWindow finds the window tool k just wrote into.
func (e *editLoad) toolWindow(k editKind) (*core.Window, error) {
	var found *core.Window
	for _, x := range e.w.Help.Windows() {
		if e.stable[x] {
			continue
		}
		tag := x.Tag.String()
		switch {
		case k == eUses && strings.HasPrefix(tag, world.SrcDir+"/uses"),
			k == eDecl && strings.HasPrefix(tag, world.SrcDir+"/decl"),
			k == eStack && strings.Contains(tag, "176153 stack"),
			k == eHeaders && strings.HasPrefix(tag, world.MboxPath):
			found = x
		}
	}
	if found == nil {
		return nil, fmt.Errorf("no output window for tool %d", k)
	}
	if found.Body.Len() == 0 {
		return found, fmt.Errorf("tool %d wrote an empty window", k)
	}
	return found, nil
}

// finish checks that core.RecoverSession of the journal into a fresh
// world reproduces every window's tag and body.
func (e *editLoad) finish(cs *checks) {
	h := e.w.Help
	h.WaitIdle()
	if err := h.SyncJournal(); err != nil {
		cs.note("recovery reproduces every window", fmt.Errorf("sync journal: %w", err))
		return
	}
	cs.note("recovery reproduces every window", recoverAndCompare(h, e.jfs.Clone()))
}

func recoverAndCompare(h *core.Help, jfs *journal.MemFS) error {
	w2, err := world.Build(120, 60)
	if err != nil {
		return err
	}
	if err := w2.Boot(); err != nil {
		return err
	}
	if _, err := core.RecoverSession(w2.Help, jfs); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	wins := h.Windows()
	if got := len(w2.Help.Windows()); got != len(wins) {
		return fmt.Errorf("recovered %d windows, the session has %d", got, len(wins))
	}
	for _, x := range wins {
		y := w2.Help.Window(x.ID)
		if y == nil {
			return fmt.Errorf("window %d missing after recovery", x.ID)
		}
		if x.Tag.String() != y.Tag.String() {
			return fmt.Errorf("window %d tag %q recovered as %q", x.ID, x.Tag.String(), y.Tag.String())
		}
		if x.Body.String() != y.Body.String() {
			return fmt.Errorf("window %d body differs after recovery", x.ID)
		}
	}
	return nil
}

func (e *editLoad) tearDown() {
	if e.jw != nil {
		e.jw.Close()
		e.jw = nil
	}
	if e.w != nil {
		e.w.Help.KillAll()
		e.w.Help.WaitIdle()
	}
}

func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 10
	if lo < 0 {
		lo = 0
	}
	hi := func(s string) string {
		if i+10 < len(s) {
			return s[lo : i+10]
		}
		return s[lo:]
	}
	return fmt.Sprintf("at %d got %q want %q", i, hi(a), hi(b))
}
