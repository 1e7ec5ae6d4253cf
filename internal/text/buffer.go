// Package text implements the rune buffer underlying every help subwindow.
//
// A Buffer is an editable rune sequence with an undo/redo log. Offsets are
// rune counts from the start of the buffer, matching the paper's model in
// which help passes applications "the file and character offset of the mouse
// position". Storage is pluggable behind the backing interface: small bodies
// live in the original in-memory gap buffer, while large files use a piece
// table over lazily paged-in file segments (see LoadPaged) so a gigabyte log
// costs memory proportional to what is being looked at, not to its size.
// Both backings are read through one primitive, the stored run of runes
// that holds an offset (a gap-buffer half, an add-store span, or the part
// of one page inside a piece), and are written from strings decoded
// straight into storage. At caches the last run it read; Slice, String and
// Index read runs in place; the undo log keeps each change's text as a
// string, so no []rune copy of the text is made on the way in or out.
// The package also resolves the location syntax accepted by the Open
// command — :27 line numbers, and the "general locations" the paper
// mentions (:/pattern/ searches and :#offset character addresses), which we
// implement as one of the paper's future-work extensions.
package text

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Buffer is an editable sequence of runes.
//
// The zero value is an empty buffer ready to use. Buffer is not safe for
// concurrent use; help serializes all access through its event loop, as the
// original did.
type Buffer struct {
	back backing

	// run is the stored run that holds the offset At last fetched, and
	// runOff the offset of its first rune. Every edit and backing swap
	// clears it, so the per-rune hot path (At, called once per cell by
	// every reflow) is one slice index whichever backing is underneath.
	run    []rune
	runOff int

	// gen counts primitive edits (including undo/redo replay). Frames
	// compare it against the generation they laid out to decide whether
	// a relayout is needed.
	gen uint64

	undo []change
	redo []change
	seq  int // current transaction sequence number

	// Clean-state tracking for Modified: cleanLen is the undo-log length
	// at the last SetClean (or creation); cleanGone is set once that
	// state becomes unreachable — the redo history holding it was
	// truncated by a fresh edit, or SetDirty forced the buffer dirty.
	// Undoing back to exactly cleanLen entries restores Modified()==false.
	cleanLen  int
	cleanGone bool
	modified  bool

	// onSplice, when set, observes every primitive mutation — including
	// undo/redo replay and SetString — after it has been applied. The
	// session journal hangs off this hook: primInsert/primDelete are the
	// single choke point all edits funnel through, so one callback
	// captures every way a buffer can change.
	onSplice func(off, ndel int, ins string)

	// onMem, when set, observes the buffer's resident size moving. It is
	// installed into the backing, which fires it with signed rune deltas:
	// edits for the in-memory backing, and additionally page-in/eviction
	// for the paged backing. It is a slot separate from SetOnSplice so
	// memory accounting composes with the journal.
	onMem func(delta int)
}

// change records one primitive edit for the undo log.
type change struct {
	seq    int
	insert bool   // true: text was inserted at off; false: deleted
	off    int    // rune offset of the edit
	n      int    // rune count of text
	text   string // the inserted or deleted text
}

// NewBuffer returns a buffer initialized with the given text.
func NewBuffer(s string) *Buffer {
	b := &Buffer{}
	b.Load(s)
	return b
}

// bk returns the storage engine, installing the in-memory one on first
// use so the zero-value Buffer stays ready to use.
func (b *Buffer) bk() backing {
	if b.back == nil {
		b.back = newMemBacking()
	}
	return b.back
}

// Len returns the number of runes in the buffer.
func (b *Buffer) Len() int { return b.bk().length() }

// MemRunes returns the number of runes resident in process memory. For an
// in-memory buffer this equals Len; for a paged buffer it is the cached
// pages plus edits, which is what the session memory budget charges.
func (b *Buffer) MemRunes() int { return b.bk().memRunes() }

// Paged reports whether the buffer is backed by the paged piece table
// rather than the fully resident gap buffer.
func (b *Buffer) Paged() bool {
	_, ok := b.back.(*pagedBacking)
	return ok
}

// Modified reports whether the buffer differs from its state at the last
// call to SetClean. The help Put!/Get! commands use this to decide whether
// to show "Put!" in a window's tag; undoing every edit back to the clean
// state clears it again.
func (b *Buffer) Modified() bool { return b.modified }

// SetClean marks the buffer unmodified, as after a Put! or Get!. The
// current undo position becomes the clean state: Undo/Redo landing back on
// it restore Modified() == false.
func (b *Buffer) SetClean() {
	b.cleanLen = len(b.undo)
	b.cleanGone = false
	b.modified = false
}

// SetDirty marks the buffer modified without editing it, used by the file
// interface's "dirty" control message. No undo position counts as clean
// afterwards, until the next SetClean.
func (b *Buffer) SetDirty() {
	b.cleanGone = true
	b.modified = true
}

// recomputeModified derives the modified flag from the undo position: the
// buffer is clean exactly when the undo log is back at the length recorded
// by SetClean and that state is still reachable.
func (b *Buffer) recomputeModified() {
	b.modified = b.cleanGone || len(b.undo) != b.cleanLen
}

// Gen returns the buffer's edit generation: a counter bumped by every
// primitive edit, including undo/redo replay. Equal generations imply
// identical contents since the earlier observation, which is what frame
// damage checks rely on.
func (b *Buffer) Gen() uint64 { return b.gen }

// primInsert inserts s, which holds n > 0 runes, without recording undo.
func (b *Buffer) primInsert(off int, s string, n int) {
	if off < 0 || off > b.Len() {
		panic(fmt.Sprintf("text: insert offset %d out of range [0,%d]", off, b.Len()))
	}
	b.bk().insert(off, s, n)
	b.run = nil
	b.gen++
	if b.onSplice != nil {
		b.onSplice(off, 0, s)
	}
}

// primDelete deletes n > 0 runes without recording undo.
func (b *Buffer) primDelete(off, n int) {
	if off < 0 || n < 0 || off+n > b.Len() {
		panic(fmt.Sprintf("text: delete [%d,%d) out of range [0,%d]", off, off+n, b.Len()))
	}
	b.bk().remove(off, n)
	b.run = nil
	b.gen++
	if b.onSplice != nil {
		b.onSplice(off, n, "")
	}
}

// record appends c to the undo log. A fresh edit truncates the redo
// history; if the clean state lived there, it is no longer reachable by
// Undo/Redo.
func (b *Buffer) record(c change) {
	if b.cleanLen > len(b.undo) {
		b.cleanGone = true
	}
	b.undo = append(b.undo, c)
	b.redo = nil
	b.recomputeModified()
}

// Insert inserts s at rune offset off.
func (b *Buffer) Insert(off int, s string) {
	if s == "" {
		return
	}
	n := utf8.RuneCountInString(s)
	b.primInsert(off, s, n)
	b.record(change{seq: b.seq, insert: true, off: off, n: n, text: s})
}

// Delete removes n runes starting at off and returns them as a string.
func (b *Buffer) Delete(off, n int) string {
	if n == 0 {
		return ""
	}
	s := b.Slice(off, n)
	b.primDelete(off, n)
	b.record(change{seq: b.seq, off: off, n: n, text: s})
	return s
}

// Replace substitutes the range [off, off+n) with s as a single undo step.
func (b *Buffer) Replace(off, n int, s string) {
	b.Commit()
	b.Delete(off, n)
	b.Insert(off, s)
	b.Commit()
}

// Commit marks a transaction boundary: edits made after Commit undo
// separately from edits made before it.
func (b *Buffer) Commit() { b.seq++ }

// Undo reverses the most recent transaction. It reports whether anything
// was undone.
func (b *Buffer) Undo() bool { return b.replay(&b.undo, &b.redo, false) }

// Redo reapplies the most recently undone transaction. It reports whether
// anything was redone.
func (b *Buffer) Redo() bool { return b.replay(&b.redo, &b.undo, true) }

// replay pops the newest transaction off from, applies each change
// forward (redo) or backward (undo), and pushes it onto to.
func (b *Buffer) replay(from, to *[]change, forward bool) bool {
	if len(*from) == 0 {
		return false
	}
	seq := (*from)[len(*from)-1].seq
	for len(*from) > 0 && (*from)[len(*from)-1].seq == seq {
		c := (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
		if c.insert == forward {
			b.primInsert(c.off, c.text, c.n)
		} else {
			b.primDelete(c.off, c.n)
		}
		*to = append(*to, c)
	}
	b.recomputeModified()
	return true
}

// CanUndo reports whether Undo would do anything.
func (b *Buffer) CanUndo() bool { return len(b.undo) > 0 }

// CanRedo reports whether Redo would do anything.
func (b *Buffer) CanRedo() bool { return len(b.redo) > 0 }

// At returns the rune at offset off. It panics if off is out of range.
func (b *Buffer) At(off int) rune {
	// Kept small enough to inline into render loops: a read inside the
	// cached run is one slice index.
	if uint(off-b.runOff) >= uint(len(b.run)) {
		b.fill(off)
	}
	return b.run[off-b.runOff]
}

// fill caches the stored run that holds off.
func (b *Buffer) fill(off int) {
	if off < 0 || off >= b.Len() {
		panic(fmt.Sprintf("text: At(%d) out of range [0,%d)", off, b.Len()))
	}
	b.run, b.runOff = b.bk().run(off)
}

// Slice returns the runes in [off, off+n) as a string, clamped to the
// buffer bounds.
func (b *Buffer) Slice(off, n int) string {
	if off < 0 {
		n += off
		off = 0
	}
	n = min(n, b.Len()-off)
	if n <= 0 {
		return ""
	}
	return b.encode(off, n, n)
}

// String returns the whole buffer contents.
func (b *Buffer) String() string { return b.encode(0, b.Len(), int(b.bk().bytesTotal())) }

// encode writes [off, off+n) run by run into a builder sized for size
// bytes, so reading text copies it once, into the string. Runes are
// encoded through a small stack buffer, which is much faster than one
// WriteRune per rune.
func (b *Buffer) encode(off, n, size int) string {
	var sb strings.Builder
	sb.Grow(size)
	enc := make([]byte, 0, 1024)
	for end := off + n; off < end; {
		rs, start := b.bk().run(off)
		for _, r := range rs[off-start : min(len(rs), end-start)] {
			if len(enc) > cap(enc)-utf8.UTFMax {
				sb.Write(enc)
				enc = enc[:0]
			}
			enc = utf8.AppendRune(enc, r)
		}
		off = start + len(rs)
	}
	sb.Write(enc)
	return sb.String()
}

// Index returns the offset of the first occurrence of pat that starts in
// [from, end), or -1. It compares runes and reads the text in place.
func (b *Buffer) Index(pat string, from, end int) int {
	needle := []rune(pat)
	end = min(end, b.Len()-len(needle)+1)
	for i := max(from, 0); i < end; i++ {
		j := 0
		for j < len(needle) && b.At(i+j) == needle[j] {
			j++
		}
		if j == len(needle) {
			return i
		}
	}
	return -1
}

// SetString replaces the entire contents as a single undoable transaction,
// as the Get! command does.
func (b *Buffer) SetString(s string) {
	b.Replace(0, b.Len(), s)
}

// SetOnSplice installs (or, with nil, removes) the splice observer: a
// callback invoked after every primitive mutation with the rune offset,
// the number of runes deleted there, and the runes inserted. Exactly one
// of ndel/ins is non-zero per call. The callback must not mutate the
// buffer.
func (b *Buffer) SetOnSplice(fn func(off, ndel int, ins string)) {
	b.onSplice = fn
}

// SetOnMem installs (or, with nil, removes) the resident-size observer:
// a callback invoked with signed rune deltas whenever the buffer's
// resident size moves — on every edit, and for paged buffers also on
// page-in and eviction. It is a slot separate from SetOnSplice so memory
// accounting composes with the journal. The callback must not mutate
// the buffer.
func (b *Buffer) SetOnMem(fn func(delta int)) {
	b.onMem = fn
	b.bk().setOnMem(fn)
}

// Load replaces the entire contents without recording undo and marks the
// buffer clean, as when a window adopts a file's contents wholesale. The
// undo and redo histories are discarded; the splice observer, if any,
// stays installed and sees the replacement as a delete plus an insert.
func (b *Buffer) Load(s string) {
	_ = b.ApplySplice(0, b.Len(), s) // the whole buffer is always in range
	b.undo = nil
	b.redo = nil
	b.SetClean()
}

// swapBacking replaces the storage engine wholesale, with the same
// observable semantics as Load: the splice observer sees a delete of the
// old contents and an insert of the new, the generation bumps for each,
// residency accounting transfers from the old backing to the new, and the
// undo/redo histories are discarded with the buffer left clean.
//
// The insert half materializes the new contents as a string only when a
// splice observer is installed (the journal needs the text); without one,
// adopting a paged backing stays lazy.
func (b *Buffer) swapBacking(nb backing) {
	old := b.bk()
	oldLen := old.length()
	if oldLen > 0 {
		b.gen++
		if b.onSplice != nil {
			b.onSplice(0, oldLen, "")
		}
	}
	old.setOnMem(nil)
	if b.onMem != nil {
		if n := old.memRunes(); n != 0 {
			b.onMem(-n)
		}
	}
	b.back = nb
	b.run = nil
	if b.onMem != nil {
		if n := nb.memRunes(); n != 0 {
			b.onMem(n)
		}
	}
	nb.setOnMem(b.onMem)
	if nb.length() > 0 {
		b.gen++
		if b.onSplice != nil {
			b.onSplice(0, 0, b.String())
		}
	}
	b.undo = nil
	b.redo = nil
	b.SetClean()
}

// LoadPaged replaces the entire contents with a paged view of src, the
// piece-table analogue of Load: the file's bytes page in on demand as the
// buffer is read, with at most maxResident bytes of decoded text held
// resident at once (minimum one page). Building the view streams src once
// to index page boundaries and newlines — a byte scan, with no rune
// materialization — so line queries never touch unresident pages.
//
// On error the buffer is left unchanged. Edits, undo, generations, and
// splice observation behave identically to an in-memory buffer.
func (b *Buffer) LoadPaged(src Source, maxResident int64) error {
	nb, err := newPagedBacking(src, maxResident, defaultPageBytes)
	if err != nil {
		return err
	}
	b.swapBacking(nb)
	return nil
}

// AdoptClone replaces the contents with a structural clone of src's
// storage: pieces and indexes are copied, but file-backed page data is
// shared lazily rather than materialized, so cloning a paged gigabyte
// window costs the piece table, not the text. Undo history is not
// inherited and the buffer starts clean, exactly like Load.
func (b *Buffer) AdoptClone(src *Buffer) {
	b.swapBacking(src.back.clone())
}

// ApplySplice applies a journaled primitive mutation: delete ndel runes
// at off, then insert ins there. It bypasses the undo log and does not
// touch the modified flag — recovery replays clean-state transitions as
// separate records — and returns an error instead of panicking on an
// out-of-range splice, because a journal's word is not to be trusted.
func (b *Buffer) ApplySplice(off, ndel int, ins string) error {
	if off < 0 || ndel < 0 || off+ndel > b.Len() {
		return fmt.Errorf("text: splice [%d,%d) out of range [0,%d]", off, off+ndel, b.Len())
	}
	if ndel > 0 {
		b.primDelete(off, ndel)
	}
	if ins != "" {
		b.primInsert(off, ins, utf8.RuneCountInString(ins))
	}
	return nil
}

// LineStart returns the offset of the first rune of 1-based line number ln.
// Lines past the end resolve to the buffer length. Line ln starts just
// after the (ln-1)th newline, so this is a direct index lookup.
func (b *Buffer) LineStart(ln int) int {
	if ln <= 1 {
		return 0
	}
	if ln-2 < b.bk().nNewlines() {
		return b.bk().newlineOff(ln-2) + 1
	}
	return b.Len()
}

// LineEnd returns the offset just past the last rune of line ln, excluding
// the newline itself: the first newline at or after the line's start.
func (b *Buffer) LineEnd(ln int) int {
	off := b.LineStart(ln)
	if i := b.bk().newlineIdx(off); i < b.bk().nNewlines() {
		return b.bk().newlineOff(i)
	}
	return b.Len()
}

// LineAt returns the 1-based line number containing offset off: one more
// than the number of newlines strictly before it.
func (b *Buffer) LineAt(off int) int {
	if off > b.Len() {
		off = b.Len()
	}
	return b.bk().newlineIdx(off) + 1
}

// NLines returns the number of lines in the buffer. An empty buffer has
// one (empty) line; a trailing newline does not start a new line.
func (b *Buffer) NLines() int {
	n := b.Len()
	if n == 0 {
		return 1
	}
	k := b.bk().nNewlines()
	if k > 0 && b.bk().newlineOff(k-1) == n-1 {
		return k // trailing newline: no extra line after it
	}
	return k + 1
}

// ErrNoMatch is returned by Address when a pattern search fails.
var ErrNoMatch = errors.New("text: no match")

// Address resolves the location syntax accepted after a file name:
//
//	27        line 27 (window positioned so the line is visible and selected)
//	#123      character (rune) offset 123
//	/pat/     first literal occurrence of pat, searching forward from 0
//
// It returns the rune range [q0, q1) to select.
func (b *Buffer) Address(addr string) (q0, q1 int, err error) {
	switch {
	case addr == "":
		return 0, 0, nil
	case addr[0] == '#':
		var off int
		if _, err := fmt.Sscanf(addr[1:], "%d", &off); err != nil {
			return 0, 0, fmt.Errorf("text: bad address %q", addr)
		}
		if off < 0 {
			off = 0
		}
		if off > b.Len() {
			off = b.Len()
		}
		return off, off, nil
	case addr[0] == '/':
		pat := strings.TrimPrefix(addr, "/")
		pat = strings.TrimSuffix(pat, "/")
		if pat == "" {
			return 0, 0, fmt.Errorf("text: empty pattern")
		}
		if i := b.Index(pat, 0, b.Len()); i >= 0 {
			return i, i + utf8.RuneCountInString(pat), nil
		}
		return 0, 0, ErrNoMatch
	default:
		var ln int
		if _, err := fmt.Sscanf(addr, "%d", &ln); err != nil {
			return 0, 0, fmt.Errorf("text: bad address %q", addr)
		}
		if ln < 1 {
			ln = 1
		}
		return b.LineStart(ln), b.LineEnd(ln), nil
	}
}
