package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/shell"
	"repro/internal/userland"
	"repro/internal/vfs"
)

// world builds a help instance over a small namespace.
func world(t *testing.T) (*Help, *vfs.FS) {
	t.Helper()
	fs := vfs.New()
	fs.MkdirAll("/bin")
	fs.MkdirAll("/usr/rob/src/help")
	fs.MkdirAll("/usr/rob/lib")
	fs.WriteFile("/usr/rob/src/help/help.c", []byte("#include <u.h>\nint n;\nvoid main(void)\n{\n\tn = 1;\n}\n"))
	fs.WriteFile("/usr/rob/src/help/dat.h", []byte("typedef struct Text Text;\n"))
	fs.WriteFile("/usr/rob/lib/profile", []byte("bind -a /home/bin /bin\n"))
	sh := shell.New(fs)
	userland.Install(sh)
	h := New(fs, sh, 80, 24)
	return h, fs
}

func TestNewLayout(t *testing.T) {
	h, _ := world(t)
	if h.Columns() != 2 {
		t.Errorf("columns = %d", h.Columns())
	}
	if len(h.Windows()) != 0 {
		t.Errorf("windows = %d", len(h.Windows()))
	}
	h.Render()
	// The column tab row exists.
	s := h.Screen()
	if s.At(geom.Pt(0, 0)).R != '■' || s.At(geom.Pt(40, 0)).R != '■' {
		t.Error("column tabs missing")
	}
}

func TestOpenFileCreatesWindow(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	if w.FileName() != "/usr/rob/src/help/help.c" {
		t.Errorf("name = %q", w.FileName())
	}
	if !strings.Contains(w.Body.String(), "int n;") {
		t.Errorf("body = %q", w.Body.String())
	}
	if !strings.Contains(w.Tag.String(), "Close!") {
		t.Errorf("tag = %q", w.Tag.String())
	}
	if w.Body.Modified() {
		t.Error("fresh window should be clean")
	}
}

func TestOpenFileReuse(t *testing.T) {
	h, _ := world(t)
	a, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	b, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	if a != b {
		t.Error("same file opened twice")
	}
	if len(h.Windows()) != 1 {
		t.Errorf("windows = %d", len(h.Windows()))
	}
}

func TestOpenFileAddr(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "5")
	if err != nil {
		t.Fatal(err)
	}
	sel := w.Sel[SubBody]
	if w.Body.LineAt(sel.Q0) != 5 {
		t.Errorf("selection at line %d", w.Body.LineAt(sel.Q0))
	}
	if w.SelectedText(SubBody) != "\tn = 1;" {
		t.Errorf("selected %q", w.SelectedText(SubBody))
	}
}

func TestOpenMissingFile(t *testing.T) {
	h, _ := world(t)
	if _, err := h.OpenFile("/no/such/file", ""); err == nil {
		t.Error("want error")
	}
	if len(h.Windows()) != 0 {
		t.Error("failed open leaked a window")
	}
}

func TestOpenDirectory(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help", "")
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsDir {
		t.Error("IsDir = false")
	}
	if !strings.HasPrefix(w.Tag.String(), "/usr/rob/src/help/") {
		t.Errorf("tag = %q (want trailing slash)", w.Tag.String())
	}
	if !strings.Contains(w.Body.String(), "help.c\n") {
		t.Errorf("body = %q", w.Body.String())
	}
	if w.Dir() != "/usr/rob/src/help" {
		t.Errorf("Dir = %q", w.Dir())
	}
}

func TestWindowDirContext(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	if w.Dir() != "/usr/rob/src/help" {
		t.Errorf("Dir = %q", w.Dir())
	}
	empty := h.NewWindow()
	if empty.Dir() != "/" {
		t.Errorf("empty Dir = %q", empty.Dir())
	}
}

func TestPlacementBelowLowestText(t *testing.T) {
	h, _ := world(t)
	a, _ := h.OpenFile("/usr/rob/src/help/dat.h", "") // 1 line body
	h.SetCurrent(a, SubBody)
	b := h.NewWindow()
	if b.col != a.col {
		t.Error("new window not in selection's column")
	}
	// dat.h window: tag + 1 body line, so next window lands 2 rows below
	// its top.
	if b.top != a.top+2 {
		t.Errorf("b.top = %d, want %d", b.top, a.top+2)
	}
}

func TestPlacementStages(t *testing.T) {
	h, _ := world(t)
	// Fill the first column with windows of big bodies until stage 3 hides
	// windows entirely.
	big := strings.Repeat("line\n", 100)
	fsWrite(t, h, "/big.txt", big)
	first, _ := h.OpenFile("/big.txt", "")
	h.SetCurrent(first, SubBody)
	col := first.col
	var wins []*Window
	for i := 0; i < 8; i++ {
		w := h.NewWindow()
		w.Body.SetString(big)
		wins = append(wins, w)
	}
	// Invariant: every displayed window shows at least its tag, and the
	// newest window got at least minVisible rows.
	last := wins[len(wins)-1]
	if col.visibleSpan(last) < minVisible {
		t.Errorf("newest window span = %d", col.visibleSpan(last))
	}
	for _, w := range col.displayed() {
		if col.visibleSpan(w) < 1 {
			t.Errorf("displayed window %d has no visible tag", w.ID)
		}
	}
	// Stage 3 must have hidden something by now.
	hidden := 0
	for _, w := range col.wins {
		if w.hidden {
			hidden++
		}
	}
	if hidden == 0 {
		t.Error("no window hidden after overfilling the column")
	}
}

func fsWrite(t *testing.T, h *Help, path, content string) {
	t.Helper()
	if err := h.FS.WriteFile(path, []byte(content)); err != nil {
		t.Fatal(err)
	}
}

func TestRevealCoversLower(t *testing.T) {
	h, _ := world(t)
	fsWrite(t, h, "/a", strings.Repeat("a\n", 30))
	fsWrite(t, h, "/b", strings.Repeat("b\n", 30))
	a, _ := h.OpenFile("/a", "")
	h.SetCurrent(a, SubBody)
	b, _ := h.OpenFile("/b", "")
	col := a.col
	if col != b.col {
		t.Fatal("windows in different columns")
	}
	h.Reveal(a)
	if !b.hidden {
		t.Error("lower window should be covered")
	}
	if col.visibleSpan(a) != col.r.Max.Y-a.top {
		t.Errorf("revealed window span = %d", col.visibleSpan(a))
	}
	// Tab click on b brings it back.
	h.Reveal(b)
	if b.hidden {
		t.Error("revealed window still hidden")
	}
}

func TestMoveWindowBetweenColumns(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	src := w.col
	dstPt := geom.Pt(60, 5) // right column
	h.MoveWindow(w, dstPt)
	if w.col == src {
		t.Error("window did not change column")
	}
	if w.top != 5 {
		t.Errorf("top = %d", w.top)
	}
}

func TestMoveWindowNudgesCollision(t *testing.T) {
	h, _ := world(t)
	fsWrite(t, h, "/a", "a\n")
	fsWrite(t, h, "/b", "b\n")
	a, _ := h.OpenFile("/a", "")
	h.SetCurrent(a, SubBody)
	b, _ := h.OpenFile("/b", "")
	h.MoveWindow(b, geom.Pt(b.col.r.Min.X+2, a.top))
	if a.top == b.top && !a.hidden {
		t.Errorf("collision not resolved: a.top=%d b.top=%d", a.top, b.top)
	}
}

func TestCloseWindow(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.SetCurrent(w, SubBody)
	h.CloseWindow(w)
	if len(h.Windows()) != 0 {
		t.Error("window not removed")
	}
	if cw, _ := h.Current(); cw != nil {
		t.Error("current selection survives close")
	}
	// Double close is a no-op.
	h.CloseWindow(w)
}

func TestErrorsWindow(t *testing.T) {
	h, _ := world(t)
	h.AppendErrors("first\n")
	h.AppendErrors("second\n")
	e := h.Errors()
	if e.Body.String() != "first\nsecond\n" {
		t.Errorf("errors body = %q", e.Body.String())
	}
	if !strings.HasPrefix(e.Tag.String(), "Errors") {
		t.Errorf("errors tag = %q", e.Tag.String())
	}
	if len(h.Windows()) != 1 {
		t.Errorf("windows = %d", len(h.Windows()))
	}
	// Closing it and appending again recreates it.
	h.CloseWindow(e)
	h.AppendErrors("third\n")
	if h.Errors().Body.String() != "third\n" {
		t.Errorf("recreated errors = %q", h.Errors().Body.String())
	}
}

func TestGetPut(t *testing.T) {
	h, fs := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/dat.h", "")
	w.Body.Insert(0, "// edited\n")
	w.RefreshTag()
	if !strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("modified tag = %q", w.Tag.String())
	}
	if err := h.Put(w, ""); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/usr/rob/src/help/dat.h")
	if !strings.HasPrefix(string(data), "// edited\n") {
		t.Errorf("file = %q", data)
	}
	if strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("clean tag still shows Put!: %q", w.Tag.String())
	}
	// Get! reloads, discarding edits.
	w.Body.Insert(0, "junk ")
	if err := h.Get(w); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.Body.String(), "// edited\n") {
		t.Errorf("after Get: %q", w.Body.String())
	}
	if w.Body.Modified() {
		t.Error("Get should mark clean")
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, name, addr string }{
		{"help.c:27", "help.c", "27"},
		{"help.c", "help.c", ""},
		{"/usr/rob/src/help/text.c:32", "/usr/rob/src/help/text.c", "32"},
		{"f.c:#120", "f.c", "#120"},
		{"f.c:/main/", "f.c", "/main/"},
		{"odd:name", "odd:name", ""},
		{"trailing:", "trailing:", ""},
	}
	for _, c := range cases {
		name, addr := SplitAddr(c.in)
		if name != c.name || addr != c.addr {
			t.Errorf("SplitAddr(%q) = %q,%q want %q,%q", c.in, name, addr, c.name, c.addr)
		}
	}
}

func TestExpandFilename(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString(`#include "dat.h"` + "\nsee text.c:32 here\n")
	// Point inside dat.h.
	off := strings.Index(w.Body.String(), "at.h")
	q0, q1 := expandFilename(w.Body, off)
	if got := w.Body.Slice(q0, q1-q0); got != "dat.h" {
		t.Errorf("expanded %q", got)
	}
	// Point inside text.c:32 — includes the address.
	off = strings.Index(w.Body.String(), "xt.c")
	q0, q1 = expandFilename(w.Body, off)
	if got := w.Body.Slice(q0, q1-q0); got != "text.c:32" {
		t.Errorf("expanded %q", got)
	}
}

func TestExecuteOpenWithArgument(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	h.Execute(w, "Open /usr/rob/lib/profile")
	if h.WindowByName("/usr/rob/lib/profile") == nil {
		t.Error("profile window not created")
	}
}

func TestExecuteOpenDefaultFromSelection(t *testing.T) {
	h, _ := world(t)
	src, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	// Null selection inside "u.h"... actually point at dat.h-like token:
	// use the body's "u.h" include.
	body := src.Body.String()
	off := strings.Index(body, "u.h")
	src.SetSelection(SubBody, off, off)
	h.SetCurrent(src, SubBody)
	// Executing Open with no argument: context dir prepended to the
	// selected file name.
	other := h.NewWindow()
	h.Execute(other, "Open")
	if h.WindowByName("/usr/rob/src/help/u.h") != nil {
		t.Error("u.h does not exist; Open should have failed")
	}
	if !strings.Contains(h.Errors().Body.String(), "Open:") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
	// Now a real file.
	off = strings.Index(body, "n = 1")
	src.Body.SetString(body[:off] + "dat.h" + body[off+5:])
	src.SetSelection(SubBody, off+2, off+2)
	h.SetCurrent(src, SubBody)
	h.Execute(other, "Open")
	if h.WindowByName("/usr/rob/src/help/dat.h") == nil {
		t.Error("dat.h window not created via default rules")
	}
}

func TestExecuteOpenFileLine(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	h.Execute(w, "Open /usr/rob/src/help/help.c:5")
	opened := h.WindowByName("/usr/rob/src/help/help.c")
	if opened == nil {
		t.Fatal("window missing")
	}
	if opened.Body.LineAt(opened.Sel[SubBody].Q0) != 5 {
		t.Errorf("line = %d", opened.Body.LineAt(opened.Sel[SubBody].Q0))
	}
}

func TestExecuteCutPasteSnarf(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("hello cruel world")
	w.SetSelection(SubBody, 6, 12) // "cruel "
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Cut")
	if w.Body.String() != "hello world" {
		t.Errorf("after Cut: %q", w.Body.String())
	}
	if h.Snarf() != "cruel " {
		t.Errorf("snarf = %q", h.Snarf())
	}
	// Paste it back at the start.
	w.SetSelection(SubBody, 0, 0)
	h.Execute(w, "Paste")
	if w.Body.String() != "cruel hello world" {
		t.Errorf("after Paste: %q", w.Body.String())
	}
	// Snarf copies without deleting.
	w.SetSelection(SubBody, 0, 5)
	h.Execute(w, "Snarf")
	if h.Snarf() != "cruel" || !strings.Contains(w.Body.String(), "cruel hello") {
		t.Errorf("snarf = %q body = %q", h.Snarf(), w.Body.String())
	}
}

func TestExecuteWindowOps(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/dat.h", "")
	w.Body.Insert(0, "x")
	h.Execute(w, "Put!")
	data, _ := h.FS.ReadFile("/usr/rob/src/help/dat.h")
	if !strings.HasPrefix(string(data), "x") {
		t.Errorf("Put! did not write: %q", data)
	}
	h.Execute(w, "Close!")
	if h.WindowByName("/usr/rob/src/help/dat.h") != nil {
		t.Error("Close! did not close")
	}
}

func TestExecutePattern(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("alpha beta gamma beta")
	w.SetSelection(SubBody, 0, 0)
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Pattern beta")
	if got := w.SelectedText(SubBody); got != "beta" {
		t.Fatalf("selected %q", got)
	}
	first := w.Sel[SubBody].Q0
	// Again: finds the next occurrence.
	h.Execute(w, "Pattern beta")
	if w.Sel[SubBody].Q0 <= first {
		t.Errorf("second match at %d, first %d", w.Sel[SubBody].Q0, first)
	}
	// And wraps.
	h.Execute(w, "Pattern beta")
	if w.Sel[SubBody].Q0 != first {
		t.Errorf("wrap landed at %d", w.Sel[SubBody].Q0)
	}
	// Missing pattern reports to Errors.
	h.Execute(w, "Pattern zebra")
	if !strings.Contains(h.Errors().Body.String(), "not found") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestExecuteText(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("XX")
	w.SetSelection(SubBody, 0, 2)
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Text replaced words")
	if w.Body.String() != "replaced words" {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestExecuteUndoRedo(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("keep")
	w.SetSelection(SubBody, 4, 4)
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Text  this")
	if w.Body.String() != "keep this" {
		t.Fatalf("body = %q", w.Body.String())
	}
	h.Execute(w, "Undo")
	if w.Body.String() != "keep" {
		t.Errorf("after Undo: %q", w.Body.String())
	}
	h.Execute(w, "Redo")
	if w.Body.String() != "keep this" {
		t.Errorf("after Redo: %q", w.Body.String())
	}
}

// TestTagRewriteKeepsNoUndo: help rewrites tags itself (a file name, a
// Put! appearing on a modified window, the Errors tag) and keeps no undo
// history for it — Undo and Redo act on the body only, so that history
// would never be read, only kept.
func TestTagRewriteKeepsNoUndo(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	w.Body.Insert(0, "x")
	w.SetNameTag(w.FileName())
	w.RefreshTag()
	if !strings.Contains(w.Tag.String(), "Put!") || w.Tag.Modified() {
		t.Fatalf("tag = %q, modified %v", w.Tag.String(), w.Tag.Modified())
	}
	if w.Tag.Undo() {
		t.Errorf("tag rewrite left undo history")
	}
	if e := h.Errors(); e.Tag.Undo() {
		t.Errorf("Errors tag left undo history")
	}
}

func TestExecuteExit(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	h.Execute(w, "Exit")
	if !h.Exited() {
		t.Error("Exit did not exit")
	}
}

func TestExternalCommandOutputToErrors(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Execute(w, "echo external ran")
	if !strings.Contains(h.Errors().Body.String(), "external ran") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestExternalCommandDirPrepended(t *testing.T) {
	h, fs := world(t)
	// A tool script living next to the file gets found by bare name.
	fs.WriteFile("/usr/rob/src/help/localtool", []byte("echo ran from $0\n"))
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Execute(w, "localtool")
	if !strings.Contains(h.Errors().Body.String(), "/usr/rob/src/help/localtool") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestExternalCommandFallsBackToBin(t *testing.T) {
	h, fs := world(t)
	fs.WriteFile("/bin/bintool", []byte("echo from bin\n"))
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Execute(w, "bintool")
	if !strings.Contains(h.Errors().Body.String(), "from bin") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestExternalCommandGlobExpansion(t *testing.T) {
	h, fs := world(t)
	fs.WriteFile("/usr/rob/src/help/a.c", []byte("int aa;\n"))
	fs.WriteFile("/usr/rob/src/help/b.c", []byte("int bb;\n"))
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Execute(w, "grep int *.c")
	errs := h.Errors().Body.String()
	if !strings.Contains(errs, "a.c:int aa;") || !strings.Contains(errs, "b.c:int bb;") {
		t.Errorf("errors = %q", errs)
	}
}

func TestHelpselPassedToTools(t *testing.T) {
	h, fs := world(t)
	fs.WriteFile("/bin/showsel", []byte("echo sel=$helpsel\n"))
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	w.SetSelection(SubBody, 3, 7)
	h.SetCurrent(w, SubBody)
	h.Execute(w, "showsel")
	want := "sel=" + "1:3,7"
	if !strings.Contains(h.Errors().Body.String(), want) {
		t.Errorf("errors = %q, want %q", h.Errors().Body.String(), want)
	}
}

func TestCommandNotFoundReported(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	h.Execute(w, "no-such-cmd")
	if !strings.Contains(h.Errors().Body.String(), "not found") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestMetricsCounting(t *testing.T) {
	h, _ := world(t)
	h.OpenFile("/usr/rob/src/help/dat.h", "")
	h.Render()
	h.HandleAll(event.Click(event.Left, geom.Pt(5, 2)))
	h.HandleAll(event.Type("ab"))
	m := h.Metrics()
	if m.Presses != 1 {
		t.Errorf("presses = %d", m.Presses)
	}
	if m.Keystrokes != 2 {
		t.Errorf("keystrokes = %d", m.Keystrokes)
	}
}

func TestExpandColumn(t *testing.T) {
	h, _ := world(t)
	h.ExpandColumn(0)
	if h.cols[0].r.Dx() <= h.cols[1].r.Dx() {
		t.Error("column 0 did not expand")
	}
	h.ExpandColumn(1)
	if h.cols[1].r.Dx() <= h.cols[0].r.Dx() {
		t.Error("column 1 did not expand")
	}
}

func TestCloneWindow(t *testing.T) {
	h, _ := world2(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Execute(w, "Clone!")
	wins := h.Windows()
	if len(wins) != 2 {
		t.Fatalf("windows = %d", len(wins))
	}
	clone := wins[1]
	if clone.FileName() != w.FileName() {
		t.Errorf("clone name = %q", clone.FileName())
	}
	// Independent editing: a change in one does not touch the other.
	clone.Body.Insert(0, "x")
	if strings.HasPrefix(w.Body.String(), "x") {
		t.Error("clone shares the original's buffer")
	}
	// Clone of a nameless window reports an error instead.
	empty := h.NewWindow()
	h.Execute(empty, "Clone!")
	if !strings.Contains(h.Errors().Body.String(), "Clone!") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestExecuteShellSyntax(t *testing.T) {
	h, fs := world2(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	// Redirection: output lands in the file, not the Errors window.
	h.Execute(w, "echo redirected > /tmp/out.txt")
	data, err := fs.ReadFile("/tmp/out.txt")
	if err != nil || string(data) != "redirected\n" {
		t.Errorf("redirect file = %q err=%v (errors: %q)", data, err, h.Errors().Body.String())
	}
	// Pipelines work too.
	h.Execute(w, "{ echo b; echo a } | sort | sed 1q")
	if !strings.Contains(h.Errors().Body.String(), "a") {
		t.Errorf("pipeline errors window = %q", h.Errors().Body.String())
	}
}

// world2 is world plus a /tmp directory for redirection tests.
func world2(t *testing.T) (*Help, *vfs.FS) {
	h, fs := world(t)
	fs.MkdirAll("/tmp")
	return h, fs
}

func TestSendRunsLastLine(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("a typescript window\necho ran in a shell window\n")
	h.Execute(w, "Send")
	if !strings.Contains(w.Body.String(), "\nran in a shell window\n") {
		t.Errorf("body = %q", w.Body.String())
	}
	// Nothing lands in the Errors window.
	if h.errors != nil && strings.Contains(h.Errors().Body.String(), "ran in a shell") {
		t.Error("Send output leaked to Errors")
	}
}

func TestSendRunsSelection(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("echo first\necho second\n")
	off := strings.Index(w.Body.String(), "echo first")
	w.SetSelection(SubBody, off, off+len("echo first"))
	h.SetCurrent(w, SubBody)
	// Send executed from anywhere applies to the selection's window.
	other := h.NewWindow()
	h.Execute(other, "Send")
	if !strings.Contains(w.Body.String(), "\nfirst\n") {
		t.Errorf("body = %q", w.Body.String())
	}
	if strings.Contains(w.Body.String(), "\nsecond\n") {
		t.Error("Send ran the wrong line")
	}
}

func TestSendUsesWindowDirContext(t *testing.T) {
	h, fs := world2(t)
	fs.WriteFile("/usr/rob/src/help/note", []byte("from the src dir\n"))
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.SetCurrent(nil, SubBody)
	w.Body.Insert(w.Body.Len(), "\ncat note\n")
	h.Execute(w, "Send")
	if !strings.Contains(w.Body.String(), "from the src dir") {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestSendEmpty(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.Execute(w, "Send")
	if !strings.Contains(h.Errors().Body.String(), "Send:") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestReportFault(t *testing.T) {
	h, _ := world(t)
	h.ReportFault("remote (degraded)", errors.New("server gone"))
	h.ReportFault("remote (connected)", nil)
	body := h.Errors().Body.String()
	if !strings.Contains(body, "remote (degraded): server gone\n") {
		t.Errorf("errors = %q", body)
	}
	if !strings.Contains(body, "remote (connected): ok\n") {
		t.Errorf("errors = %q", body)
	}
}
