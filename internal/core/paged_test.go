package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
)

// bigBody builds a line-structured body of roughly n bytes.
func bigBody(n int) string {
	var b strings.Builder
	b.Grow(n + 64)
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "line %d: the quick brown fox jumps over the lazy dog\n", i)
	}
	return b.String()
}

// pagedWorld builds a help world with a low paging threshold and one
// large file that crosses it.
func pagedWorld(t *testing.T) (*Help, string, string) {
	t.Helper()
	h, fs := world(t)
	h.SetLimits(Limits{MaxResident: 32 << 10})
	body := bigBody(256 << 10)
	fs.WriteFile("/usr/rob/lib/trace.log", []byte(body))
	return h, "/usr/rob/lib/trace.log", body
}

func TestOpenFilePaged(t *testing.T) {
	h, name, body := pagedWorld(t)
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if !w.Body.Paged() {
		t.Fatal("large body did not open paged")
	}
	if got := w.Body.Len(); got != len(body) {
		t.Fatalf("Len = %d, want %d", got, len(body))
	}
	if got := w.Body.NLines(); got != strings.Count(body, "\n") {
		t.Fatalf("NLines = %d, want %d", got, strings.Count(body, "\n"))
	}
	// Scrolling to the end faults in only the tail pages; residency is
	// bounded by the cache cap (which floors at one 64 KiB page) plus
	// one in-flight page, far below the full body.
	w.Scroll(w.Body.NLines())
	if mr := w.Body.MemRunes(); mr > 128<<10 {
		t.Errorf("MemRunes = %d after scroll, want <= %d", mr, 128<<10)
	}
	if mr := w.Body.MemRunes(); mr >= len(body) {
		t.Errorf("MemRunes = %d: whole body resident", mr)
	}
	if h.Obs.Counter("core.paged.open").Load() == 0 {
		t.Error("core.paged.open counter not bumped")
	}
	// The full body is still reachable through the same API.
	if got := w.Body.String(); got != body {
		t.Error("String() mismatch on paged body")
	}
}

func TestOpenFileSmallStaysUnpaged(t *testing.T) {
	h, _ := world(t)
	h.SetLimits(Limits{MaxResident: 32 << 10})
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if w.Body.Paged() {
		t.Error("small body opened paged")
	}
}

func TestGetSkipsUnchanged(t *testing.T) {
	h, fs := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	c := h.Obs.Counter("core.get.unchanged")
	before := c.Load()
	if err := h.get(w); err != nil {
		t.Fatalf("get: %v", err)
	}
	if c.Load() != before+1 {
		t.Errorf("unchanged get did not skip (counter %d -> %d)", before, c.Load())
	}
	// Rewrite the file: the next Get must do a real reload.
	fs.WriteFile("/usr/rob/src/help/help.c", []byte("fresh\n"))
	if err := h.get(w); err != nil {
		t.Fatalf("get after write: %v", err)
	}
	if got := w.Body.String(); got != "fresh\n" {
		t.Errorf("body after changed get = %q", got)
	}
	if c.Load() != before+1 {
		t.Errorf("changed get was wrongly skipped")
	}
	// A locally modified body must reload even when the file is unchanged
	// (Get is the "discard my edits" command).
	w.Body.Insert(0, "junk")
	if err := h.get(w); err != nil {
		t.Fatalf("get of modified body: %v", err)
	}
	if got := w.Body.String(); got != "fresh\n" {
		t.Errorf("modified get did not restore file: %q", got)
	}
}

func TestGetPagedReload(t *testing.T) {
	h, name, body := pagedWorld(t)
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// Unchanged file: skip, still paged.
	if err := h.get(w); err != nil {
		t.Fatalf("get: %v", err)
	}
	if !w.Body.Paged() {
		t.Fatal("get of unchanged paged window dropped paging")
	}
	// Grow the file: Get reloads paged at the new size.
	fs := h.FS
	grown := body + "tail line\n"
	fs.WriteFile(name, []byte(grown))
	if err := h.get(w); err != nil {
		t.Fatalf("get after grow: %v", err)
	}
	if !w.Body.Paged() {
		t.Error("reload of large file not paged")
	}
	if got := w.Body.Len(); got != len(grown) {
		t.Errorf("Len after reload = %d, want %d", got, len(grown))
	}
	// Shrink below the threshold: Get falls back to a materialized body.
	fs.WriteFile(name, []byte("tiny\n"))
	if err := h.get(w); err != nil {
		t.Fatalf("get after shrink: %v", err)
	}
	if got := w.Body.String(); got != "tiny\n" {
		t.Errorf("body after shrink = %q", got)
	}
}

func TestClonePaged(t *testing.T) {
	h, name, body := pagedWorld(t)
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	h.Execute(w, "Clone!")
	wins := h.Windows()
	var nw *Window
	for _, x := range wins {
		if x != w && x.FileName() == name {
			nw = x
		}
	}
	if nw == nil {
		t.Fatal("Clone! did not create a window")
	}
	if !nw.Body.Paged() {
		t.Error("clone of paged body is not paged")
	}
	if nw.Body.Len() != len(body) {
		t.Errorf("clone Len = %d, want %d", nw.Body.Len(), len(body))
	}
	if nw.Body.Modified() {
		t.Error("clone marked modified")
	}
	// Clone shares no mutable state: editing one must not touch the other.
	nw.Body.Insert(0, "x")
	if w.Body.Len() != len(body) {
		t.Error("edit of clone leaked into original")
	}
	if nw.fileGen != w.fileGen {
		t.Errorf("clone fileGen = %d, want %d", nw.fileGen, w.fileGen)
	}
}

// TestFindBodyPagedOffScreen: FindBody searches only the laid-out part
// of the body, in place, so a match that lies off screen in a 4 MiB
// paged body is not found and costs no copy of the body.
func TestFindBodyPagedOffScreen(t *testing.T) {
	h, fs := world(t)
	h.SetLimits(Limits{MaxResident: 32 << 10})
	body := bigBody(4 << 20)
	name := "/usr/rob/lib/trace.log"
	fs.WriteFile(name, []byte(body))
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if !w.Body.Paged() {
		t.Fatal("4 MiB body did not open paged")
	}
	h.Render()
	if _, ok := h.FindBody(w, "line 0:"); !ok {
		t.Fatal("FindBody missed the first line, which is on screen")
	}
	last := body[strings.LastIndex(body[:len(body)-1], "\n")+1:]
	pat := last[:strings.Index(last, ":")+1] // "line N:" of the last line only
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, ok := h.FindBody(w, pat)
	runtime.ReadMemStats(&m1)
	if ok {
		t.Fatalf("FindBody(%q) found a match off screen", pat)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("FindBody allocated %d bytes, want under 64 KiB", alloc)
	}
}

// TestPagedFileReplacedUnderWindow: replacing the file under an open
// paged window turns every page faulted afterwards into U+FFFD
// placeholder text with the indexed newlines, counts one moved source,
// and Get reloads the new file cleanly.
func TestPagedFileReplacedUnderWindow(t *testing.T) {
	h, name, body := pagedWorld(t)
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if !w.Body.Paged() {
		t.Fatal("large body did not open paged")
	}
	replaced := strings.ToUpper(body)
	if err := h.FS.WriteFile(name, []byte(replaced)); err != nil {
		t.Fatal(err)
	}
	// The residency cap holds one page, so the later pages are faulted
	// from the replaced file.
	got := w.Body.String()
	if !strings.ContainsRune(got, utf8.RuneError) {
		t.Fatal("pages faulted after the replace hold text, not U+FFFD placeholders")
	}
	if strings.Contains(got, "LINE ") {
		t.Fatal("pages faulted after the replace read the new file")
	}
	if n, want := strings.Count(got, "\n"), strings.Count(body, "\n"); n != want || w.Body.NLines() != want {
		t.Fatalf("placeholder body has %d newlines, NLines %d; want %d", n, w.Body.NLines(), want)
	}
	if moved := h.Obs.Counter("core.paged.moved").Load(); moved != 1 {
		t.Fatalf("core.paged.moved = %d, want 1", moved)
	}
	if err := h.get(w); err != nil {
		t.Fatalf("get: %v", err)
	}
	if !w.Body.Paged() || w.Body.String() != replaced {
		t.Fatal("get did not reload the replaced file")
	}
}

// TestSendLineReadsInPlace: Send finds the last non-blank line of a
// 16 MiB paged body by reading the lines it visits, not a copy of the
// body.
func TestSendLineReadsInPlace(t *testing.T) {
	h, fs := world(t)
	h.SetLimits(Limits{MaxResident: 32 << 10})
	name := "/usr/rob/lib/trace.log"
	fs.WriteFile(name, []byte(bigBody(16<<20)+"echo sent\n \n\t\n"))
	w, err := h.OpenFile(name, "")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if !w.Body.Paged() {
		t.Fatal("16 MiB body did not open paged")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	line := lastNonEmptyLine(w.Body)
	runtime.ReadMemStats(&m1)
	if line != "echo sent" {
		t.Fatalf("last non-blank line = %q, want %q", line, "echo sent")
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("finding the line allocated %d bytes, want under 1 MiB", alloc)
	}
}
