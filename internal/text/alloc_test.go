//go:build !race

// Under the race detector the compiler no longer folds
// append(s, make([]T, n)...) into one growth, so slices.Grow allocates
// its extension twice; these bounds are checked in the plain pass only.

package text

import (
	"runtime"
	"strings"
	"testing"
)

// allocated returns the bytes f allocates, from runtime.MemStats.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestTextCopiedOnce bounds what reading and loading an N-rune ASCII
// body allocate: String copies the text once, into the string, and Load
// or ApplySplice decode it once, into the gap buffer, plus the line
// index.
func TestTextCopiedOnce(t *testing.T) {
	const n = 8 << 20
	line := strings.Repeat("x", 63) + "\n"
	body := strings.Repeat(line, n/len(line))
	nls := uint64(strings.Count(body, "\n"))
	const slack = 64 << 10
	loadBound := 4*uint64(n) + 8*nls + slack

	var b Buffer
	if got := allocated(func() { b.Load(body) }); got > loadBound {
		t.Errorf("Load of %d runes allocated %d bytes, bound %d", n, got, loadBound)
	}
	var s string
	if got := allocated(func() { s = b.String() }); got > n+slack {
		t.Errorf("String of %d runes allocated %d bytes, bound %d", n, got, n+slack)
	}
	if s != body {
		t.Fatal("String does not round-trip Load")
	}
	var spliced Buffer
	var err error
	if got := allocated(func() { err = spliced.ApplySplice(0, 0, body) }); got > loadBound {
		t.Errorf("ApplySplice of %d runes allocated %d bytes, bound %d", n, got, loadBound)
	}
	if err != nil || spliced.Len() != n || spliced.NLines() != int(nls) {
		t.Fatalf("ApplySplice: %v, %d runes, %d lines", err, spliced.Len(), spliced.NLines())
	}
}

// TestTypingAllocs: the undo log keeps the typed string itself, so typing
// a rune allocates nothing once the gap and the log have room, and
// deleting one allocates only the string Delete returns.
func TestTypingAllocs(t *testing.T) {
	b := NewBuffer(strings.Repeat("text\n", 200))
	if got := testing.AllocsPerRun(100, func() { b.Insert(b.Len(), "y") }); got != 0 {
		t.Errorf("typing one rune: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { b.Delete(b.Len()-1, 1) }); got > 1 {
		t.Errorf("deleting one rune: %v allocs, want at most 1", got)
	}
}

// TestPageFaultAllocatesPage: a fault reads the page's bytes into the
// backing's reused buffer, so it allocates the runes it decodes, their
// newline offsets and a little bookkeeping, not a fresh copy of the
// bytes.
func TestPageFaultAllocatesPage(t *testing.T) {
	line := strings.Repeat("x", 63) + "\n"
	content := strings.Repeat(line, 4*defaultPageBytes/len(line))
	pb, err := newPagedBacking(byteSource(content), 4*defaultPageBytes, defaultPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	pb.fault(0) // the first fault allocates the read buffer
	runes := uint64(pb.idx.pageRunes(1))
	nls := uint64(pb.idx.cumN[2] - pb.idx.cumN[1])
	bound := 4*runes + 4*nls + 4<<10
	var p *page
	if got := allocated(func() { p = pb.fault(1) }); got > bound {
		t.Errorf("faulting a %d-rune page allocated %d bytes, bound %d", runes, got, bound)
	}
	if want := content[defaultPageBytes : 2*defaultPageBytes]; string(p.runes) != want {
		t.Fatal("faulted page does not hold the source's bytes")
	}
}
