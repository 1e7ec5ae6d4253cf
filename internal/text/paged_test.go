package text

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// byteSource is the trivial Source: a byte slice.
type byteSource []byte

func (s byteSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(s)) {
		return 0, io.EOF
	}
	n := copy(p, s[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (s byteSource) Size() int64 { return int64(len(s)) }

// failAfterSource serves the first `allow` ReadAt calls, then errors: it
// models a pinned file generation disappearing under a live window.
type failAfterSource struct {
	byteSource
	allow int
	calls int
}

func (s *failAfterSource) ReadAt(p []byte, off int64) (int, error) {
	s.calls++
	if s.calls > s.allow {
		return 0, errors.New("source gone")
	}
	return s.byteSource.ReadAt(p, off)
}

// newPagedBuffer builds a paged buffer over content with test-sized pages
// and a residency cap of capRunes runes.
func newPagedBuffer(t testing.TB, content string, capRunes, pageBytes int) *Buffer {
	t.Helper()
	pb, err := newPagedBacking(byteSource(content), int64(capRunes)*4, pageBytes)
	if err != nil {
		t.Fatalf("newPagedBacking: %v", err)
	}
	b := &Buffer{back: pb, gen: 1}
	return b
}

// checkSame asserts the two buffers are observably identical apart from
// their absolute generation values, whose deltas the caller tracks.
func checkSame(t *testing.T, mem, paged *Buffer) {
	t.Helper()
	if got, want := paged.Len(), mem.Len(); got != want {
		t.Fatalf("paged Len = %d, mem %d", got, want)
	}
	if got, want := paged.String(), mem.String(); got != want {
		t.Fatalf("paged String = %q, mem %q", got, want)
	}
	if got, want := paged.NLines(), mem.NLines(); got != want {
		t.Fatalf("paged NLines = %d, mem %d", got, want)
	}
	if got, want := paged.Modified(), mem.Modified(); got != want {
		t.Fatalf("paged Modified = %v, mem %v", got, want)
	}
	if got, want := paged.CanUndo(), mem.CanUndo(); got != want {
		t.Fatalf("paged CanUndo = %v, mem %v", got, want)
	}
	if got, want := paged.CanRedo(), mem.CanRedo(); got != want {
		t.Fatalf("paged CanRedo = %v, mem %v", got, want)
	}
	for ln := 1; ln <= mem.NLines()+1; ln++ {
		if got, want := paged.LineStart(ln), mem.LineStart(ln); got != want {
			t.Fatalf("paged LineStart(%d) = %d, mem %d", ln, got, want)
		}
		if got, want := paged.LineEnd(ln), mem.LineEnd(ln); got != want {
			t.Fatalf("paged LineEnd(%d) = %d, mem %d", ln, got, want)
		}
	}
	step := mem.Len()/16 + 1
	for off := 0; off <= mem.Len(); off += step {
		if got, want := paged.LineAt(off), mem.LineAt(off); got != want {
			t.Fatalf("paged LineAt(%d) = %d, mem %d", off, got, want)
		}
	}
	want := []rune(mem.String())
	checkAt(t, mem, want)
	checkAt(t, paged, want)
}

// checkAt compares b.At at every offset with want, forward and then
// backward, so every run is entered from both of its ends.
func checkAt(t *testing.T, b *Buffer, want []rune) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	for off := range want {
		if got := b.At(off); got != want[off] {
			t.Fatalf("At(%d) = %q, want %q (forward)", off, got, want[off])
		}
	}
	for off := len(want) - 1; off >= 0; off-- {
		if got := b.At(off); got != want[off] {
			t.Fatalf("At(%d) = %q, want %q (backward)", off, got, want[off])
		}
	}
}

// checkReader asserts a ByteReader reproduces the buffer's UTF-8 encoding
// under sequential reads, odd-sized chunks, and random seeks.
func checkReader(t *testing.T, b *Buffer) {
	t.Helper()
	want := []byte(b.String())
	r := NewByteReader(b)
	if got := r.Size(); got != int64(len(want)) {
		t.Fatalf("reader Size = %d, want %d", got, len(want))
	}
	got := make([]byte, 0, len(want))
	buf := make([]byte, 7)
	for off := int64(0); ; {
		n, err := r.ReadAt(buf, off)
		got = append(got, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
	}
	if string(got) != string(want) {
		t.Fatalf("sequential reader bytes = %q, want %q", got, want)
	}
	rng := rand.New(rand.NewSource(int64(len(want))))
	for trial := 0; trial < 20 && len(want) > 0; trial++ {
		off := rng.Intn(len(want))
		n := rng.Intn(len(want)-off) + 1
		p := make([]byte, n)
		read, err := r.ReadAt(p, int64(off))
		if err != nil && err != io.EOF {
			t.Fatalf("reader at %d: %v", off, err)
		}
		if string(p[:read]) != string(want[off:off+read]) || (err == nil && read != n) {
			t.Fatalf("reader at %d = %q, want %q", off, p[:read], want[off:off+n])
		}
	}
}

// applyDiffScript drives identical edit scripts against a mem-backed and a
// paged buffer, asserting full observable equality — contents, line index,
// undo/redo, modified flag, and generation deltas — after every step.
func applyDiffScript(t *testing.T, mem, paged *Buffer, script []byte) {
	t.Helper()
	genM0, genP0 := mem.Gen(), paged.Gen()
	check := func() {
		t.Helper()
		if dm, dp := mem.Gen()-genM0, paged.Gen()-genP0; dm != dp {
			t.Fatalf("gen delta diverged: mem %d, paged %d", dm, dp)
		}
		checkSame(t, mem, paged)
	}
	check()
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int(script[i+1])
		switch op {
		case 0:
			off := arg % (mem.Len() + 1)
			mem.Insert(off, "ab\ncd")
			paged.Insert(off, "ab\ncd")
		case 1:
			off := arg % (mem.Len() + 1)
			mem.Insert(off, "α\nβγ") // multi-byte runes cross page byte math
			paged.Insert(off, "α\nβγ")
		case 2:
			if mem.Len() > 0 {
				off := arg % mem.Len()
				n := arg % (mem.Len() - off + 1)
				dm := mem.Delete(off, n)
				dp := paged.Delete(off, n)
				if dm != dp {
					t.Fatalf("Delete(%d,%d): mem %q, paged %q", off, n, dm, dp)
				}
			}
		case 3:
			if mem.Undo() != paged.Undo() {
				t.Fatal("Undo availability diverged")
			}
		case 4:
			if mem.Redo() != paged.Redo() {
				t.Fatal("Redo availability diverged")
			}
		case 5:
			mem.Commit()
			paged.Commit()
		case 6:
			off := arg % (mem.Len() + 1)
			n := (arg / 2) % (mem.Len() - off + 1)
			mem.Replace(off, n, "R\n")
			paged.Replace(off, n, "R\n")
		case 7:
			if mem.Len() < 2000 {
				checkLineIndex(t, paged)
			}
		}
		check()
	}
	checkReader(t, paged)
}

func TestPagedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	alphabet := []rune("a\nb\ncδ")
	for trial := 0; trial < 40; trial++ {
		var sb strings.Builder
		for i := 0; i < rng.Intn(400); i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		initial := sb.String()
		script := make([]byte, 80)
		rng.Read(script)
		pageBytes := 8 + rng.Intn(40)
		capRunes := 1 + rng.Intn(64)
		mem := NewBuffer(initial)
		paged := newPagedBuffer(t, initial, capRunes, pageBytes)
		applyDiffScript(t, mem, paged, script)
	}
}

// FuzzPagedBuffer is the differential equivalence proof between the two
// backings: arbitrary contents (including invalid UTF-8, which both sides
// must normalize identically) and arbitrary edit/undo/redo scripts, with
// tiny pages and a tiny residency cap so faults and evictions happen
// constantly.
func FuzzPagedBuffer(f *testing.F) {
	f.Add([]byte("line1\nline2\nline3\n"), []byte{0, 3, 2, 7, 3, 0, 4, 0})
	f.Add([]byte(""), []byte{0, 0, 1, 1, 6, 9})
	f.Add([]byte("αβγ\nδεζ"), []byte{1, 2, 2, 5, 3, 0, 7, 0})
	f.Add([]byte{0xff, 0xfe, 'a', '\n', 0xc3}, []byte{0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, content []byte, script []byte) {
		if len(content) > 4096 || len(script) > 96 {
			return
		}
		pageBytes := 8
		if len(script) > 0 {
			pageBytes += int(script[0]) % 56
		}
		mem := NewBuffer(string(content))
		paged := newPagedBuffer(t, string(content), 32, pageBytes)
		applyDiffScript(t, mem, paged, script)
	})
}

// TestPagedEviction scans a body much larger than the residency cap and
// asserts pages are evicted — resident runes stay bounded — while every
// re-faulted page still decodes to the right text.
func TestPagedEviction(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		sb.WriteString("0123456789abcdef line content αβ\n")
	}
	content := sb.String()
	pageBytes := 64
	capRunes := 256
	b := newPagedBuffer(t, content, capRunes, pageBytes)

	want := []rune(string([]byte(content)))
	slack := pageBytes + 4 // one page may exceed the cap mid-fault
	for off := 0; off < b.Len(); off += 13 {
		if got := b.At(off); got != want[off] {
			t.Fatalf("At(%d) = %q, want %q", off, got, want[off])
		}
		if mr := b.MemRunes(); mr > capRunes+slack {
			t.Fatalf("resident runes %d exceed cap %d (+%d slack)", mr, capRunes, slack)
		}
	}
	pb := b.back.(*pagedBacking)
	if len(pb.cache.pages)*pageBytes >= len(content) {
		t.Fatalf("no eviction happened: %d pages resident for %d bytes", len(pb.cache.pages), len(content))
	}
	// Re-walk backwards: evicted pages must re-fault to identical text.
	for off := b.Len() - 1; off >= 0; off -= 7 {
		if got := b.At(off); got != want[off] {
			t.Fatalf("re-fault At(%d) = %q, want %q", off, got, want[off])
		}
	}
	if b.String() != string(want) {
		t.Fatal("full materialization after eviction diverged")
	}
}

// TestPagedOnMemAccounting asserts the SetOnMem deltas always sum to the
// buffer's resident size, across faults, evictions, and edits.
func TestPagedOnMemAccounting(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 120; i++ {
		sb.WriteString("some line of text αβγ\n")
	}
	b := newPagedBuffer(t, sb.String(), 128, 32)
	resident := 0
	b.SetOnMem(func(d int) { resident += d })
	if resident != 0 || b.MemRunes() != 0 {
		t.Fatalf("fresh paged buffer resident = %d/%d, want 0", resident, b.MemRunes())
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 300; step++ {
		switch rng.Intn(4) {
		case 0:
			b.At(rng.Intn(b.Len()))
		case 1:
			b.Insert(rng.Intn(b.Len()+1), "xy\n")
		case 2:
			if b.Len() > 0 {
				off := rng.Intn(b.Len())
				b.Delete(off, rng.Intn(b.Len()-off)%5)
			}
		case 3:
			b.LineAt(rng.Intn(b.Len() + 1))
		}
		if resident != b.MemRunes() {
			t.Fatalf("step %d: onMem sum %d != MemRunes %d", step, resident, b.MemRunes())
		}
	}
}

// TestPagedClone asserts AdoptClone is structural: the clone matches, the
// two evolve independently, and cloning does not materialize pages.
func TestPagedClone(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("clone me line\n")
	}
	orig := newPagedBuffer(t, sb.String(), 64, 32)
	orig.Insert(5, "EDIT")
	want := orig.String()

	clone := NewBuffer("old contents to discard")
	clone.AdoptClone(orig)
	if !clone.Paged() {
		t.Fatal("clone of a paged buffer should be paged")
	}
	if clone.MemRunes() > orig.back.(*pagedBacking).addLen() {
		t.Fatalf("clone resident %d runes before first read; cloning materialized pages", clone.MemRunes())
	}
	if clone.String() != want {
		t.Fatal("clone contents diverged")
	}
	if clone.Modified() {
		t.Fatal("fresh clone should be clean")
	}
	orig.Insert(0, "AAA")
	if clone.String() != want {
		t.Fatal("editing the original leaked into the clone")
	}
	clone.Insert(1, "zzz")
	if orig.String() == clone.String() {
		t.Fatal("editing the clone leaked into the original")
	}
}

// TestPagedSourceError: when the pinned source disappears mid-session,
// faults degrade to structurally consistent placeholder pages — same
// lengths, same newline counts — instead of panicking.
func TestPagedSourceError(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("line that will vanish\n")
	}
	content := sb.String()
	src := &failAfterSource{byteSource: byteSource(content), allow: 1 << 30}
	pb, err := newPagedBacking(src, 64*4, 32)
	if err != nil {
		t.Fatal(err)
	}
	b := &Buffer{back: pb, gen: 1}
	wantLen, wantLines := b.Len(), b.NLines()
	src.allow = src.calls // every future read fails
	// Touch everything: faults must synthesize, not panic.
	for off := 0; off < b.Len(); off += 11 {
		b.At(off)
	}
	if b.Len() != wantLen || b.NLines() != wantLines {
		t.Fatalf("degraded view changed shape: len %d→%d lines %d→%d", wantLen, b.Len(), wantLines, b.NLines())
	}
	checkLineIndex(t, b)
}

// TestSwapBackingSplice: adopting a paged backing must look like Load to
// the splice observer — a delete of the old text and an insert of the new
// — so the journal can replay it.
func TestSwapBackingSplice(t *testing.T) {
	b := NewBuffer("old text")
	var log []string
	b.SetOnSplice(func(off, ndel int, ins string) {
		log = append(log, strings.Join([]string{string(rune('0' + off%10)), string(rune('0' + ndel%10)), ins}, "|"))
	})
	if err := b.LoadPaged(byteSource("new\ncontents"), 1<<20); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("splice log = %v, want delete+insert", log)
	}
	if log[0] != "0|8|" {
		t.Fatalf("first splice %q, want delete of old text", log[0])
	}
	if log[1] != "0|0|new\ncontents" {
		t.Fatalf("second splice %q, want insert of new text", log[1])
	}
	if b.Modified() || b.CanUndo() {
		t.Fatal("LoadPaged must leave the buffer clean with no undo")
	}
}

// TestLoadPagedError: a source that fails during indexing leaves the
// buffer untouched.
func TestLoadPagedError(t *testing.T) {
	b := NewBuffer("keep me")
	src := &failAfterSource{byteSource: byteSource(strings.Repeat("x", 1<<20)), allow: 1}
	if err := b.LoadPaged(src, 1<<20); err == nil {
		t.Fatal("LoadPaged with failing source should error")
	}
	if b.String() != "keep me" || b.Paged() {
		t.Fatal("failed LoadPaged must leave the buffer unchanged")
	}
}

// TestByteReaderMidRune seeks into the middle of multi-byte runes.
func TestByteReaderMidRune(t *testing.T) {
	content := "aβ\n𝛾δe"
	for _, b := range []*Buffer{NewBuffer(content), newPagedBuffer(t, content, 8, 4)} {
		want := []byte(b.String())
		r := NewByteReader(b)
		for off := 0; off <= len(want); off++ {
			p := make([]byte, 3)
			n, err := r.ReadAt(p, int64(off))
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(p[:n]) != string(want[off:min(off+3, len(want))]) {
				t.Fatalf("ReadAt(%d) = %q, want %q", off, p[:n], want[off:min(off+3, len(want))])
			}
		}
		// Reads observe live edits.
		b.Insert(0, "Ω")
		want = []byte(b.String())
		p := make([]byte, len(want))
		if n, _ := r.ReadAt(p, 0); string(p[:n]) != string(want) {
			t.Fatalf("post-edit read = %q, want %q", p[:n], want)
		}
	}
}

// addLen exposes the add-store size for the clone test.
func (pb *pagedBacking) addLen() int { return len(pb.add) }

// TestRunCacheInvalidation fills At's run cache, then changes the buffer
// through each way in, and checks At against a []rune model of the new
// text: a way in that kept the old run would read stale runes.
func TestRunCacheInvalidation(t *testing.T) {
	const initial = "alpha\nbeta δ\n"
	clone := NewBuffer("cloned\nbody")
	steps := []struct {
		name string
		do   func(b *Buffer)
		want string
	}{
		{"Insert", func(b *Buffer) { b.Commit(); b.Insert(2, "XY") }, "alXYpha\nbeta δ\n"},
		{"Delete", func(b *Buffer) { b.Commit(); b.Delete(0, 3) }, "Ypha\nbeta δ\n"},
		{"Undo", func(b *Buffer) { b.Undo() }, "alXYpha\nbeta δ\n"},
		{"Redo", func(b *Buffer) { b.Redo() }, "Ypha\nbeta δ\n"},
		{"SetString", func(b *Buffer) { b.SetString("set\nstring") }, "set\nstring"},
		{"ApplySplice", func(b *Buffer) {
			if err := b.ApplySplice(1, 2, "ΩΩΩ"); err != nil {
				t.Fatal(err)
			}
		}, "sΩΩΩ\nstring"},
		{"Load", func(b *Buffer) { b.Load("loaded\ntext") }, "loaded\ntext"},
		{"LoadPaged", func(b *Buffer) {
			if err := b.LoadPaged(byteSource("paged\nsource"), 1<<20); err != nil {
				t.Fatal(err)
			}
		}, "paged\nsource"},
		{"AdoptClone", func(b *Buffer) { b.AdoptClone(clone) }, "cloned\nbody"},
	}
	for _, b := range []*Buffer{NewBuffer(initial), newPagedBuffer(t, initial, 8, 8)} {
		kind := "mem"
		if b.Paged() {
			kind = "paged"
		}
		for _, st := range steps {
			checkAt(t, b, []rune(b.String()))
			b.At(0) // the cache now holds the first run
			st.do(b)
			if b.String() != st.want {
				t.Fatalf("%s %s: String = %q, want %q", kind, st.name, b.String(), st.want)
			}
			checkAt(t, b, []rune(st.want))
		}
	}
}
