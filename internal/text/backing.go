package text

import (
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// backing is the storage engine beneath a Buffer. The Buffer owns edit
// generations, undo, clean-state tracking, and the splice observer; the
// backing owns the runes themselves and the newline index. Two
// implementations exist: memBacking, the original gap buffer holding the
// whole text resident, and pagedBacking, a piece table over lazily
// paged-in file segments for bodies too large to materialize.
//
// Offsets are rune counts, as everywhere in this package. The newline
// index methods mirror what the line queries need: nNewlines is the
// total count, newlineOff(i) is the offset of the i-th (0-based)
// newline, and newlineIdx(off) is the number of newlines at offsets
// strictly below off — exactly sort.SearchInts over the full index,
// without requiring the index to be materialized as one slice.
type backing interface {
	length() int
	// run returns the stored run of runes that holds off (0 <= off <
	// length) and the offset of the run's first rune. The run aliases
	// storage: it stays valid only until the next insert or remove.
	run(off int) (rs []rune, start int)
	// insert decodes s, which holds n > 0 runes, into storage at off.
	insert(off int, s string, n int)
	// remove deletes [off, off+n), n > 0.
	remove(off, n int)

	nNewlines() int
	newlineOff(i int) int
	newlineIdx(off int) int

	// memRunes reports the resident rune count: everything held in
	// process memory right now. For memBacking this equals length; for
	// pagedBacking it is the cached pages plus the append store, which
	// moves on page-in and eviction, not only on edits.
	memRunes() int
	// setOnMem installs the residency observer, called with the signed
	// rune delta whenever memRunes changes — on edits for memBacking,
	// and additionally on fault/evict for pagedBacking.
	setOnMem(fn func(delta int))

	// bytesTotal is the UTF-8 encoded size of the full contents.
	bytesTotal() int64
	// seekByte locates the rune containing byte offset off, returning
	// its rune offset and the byte offset at which that rune starts.
	// Offsets at or past the end return (length, bytesTotal).
	seekByte(off int64) (runeOff int, runeStart int64)

	// clone returns an independent copy sharing only immutable state.
	clone() backing
}

// runesByteLen returns the UTF-8 encoded length of rs. Storage holds
// only runes decoded from UTF-8 (an invalid byte decodes to U+FFFD), so
// utf8.RuneLen of a stored rune is never negative.
func runesByteLen(rs []rune) int64 {
	n := int64(len(rs))
	for _, r := range rs {
		if r >= utf8.RuneSelf {
			n += int64(utf8.RuneLen(r)) - 1
		}
	}
	return n
}

// byteSeek returns the index of the rune of rs that holds encoded byte
// offset target and the byte offset at which that rune starts; past the
// end it returns len(rs) and the encoded length of rs.
func byteSeek(rs []rune, target int64) (int, int64) {
	var bo int64
	for k, r := range rs {
		sz := int64(utf8.RuneLen(r))
		if bo+sz > target {
			return k, bo
		}
		bo += sz
	}
	return len(rs), bo
}

// memBacking is the original storage: a gap buffer of runes plus a flat
// sorted newline index. Everything is resident.
type memBacking struct {
	// Gap buffer: runes[:gapStart] and runes[gapEnd:] hold the text.
	runes    []rune
	gapStart int
	gapEnd   int

	// newlines is the line index: the offset of every '\n' in the text,
	// ascending. insert/remove maintain it incrementally, so the line
	// queries are binary searches or direct lookups instead of scans.
	newlines []int

	onMem func(delta int)
}

func newMemBacking() *memBacking { return &memBacking{} }

func (m *memBacking) length() int { return len(m.runes) - (m.gapEnd - m.gapStart) }

// run returns the half of the gap buffer on off's side of the gap.
func (m *memBacking) run(off int) ([]rune, int) {
	if off < m.gapStart {
		return m.runes[:m.gapStart], 0
	}
	return m.runes[m.gapEnd:], m.gapStart
}

// moveGap positions the gap at rune offset off.
func (m *memBacking) moveGap(off int) {
	if off < m.gapStart {
		n := m.gapStart - off
		copy(m.runes[m.gapEnd-n:m.gapEnd], m.runes[off:m.gapStart])
		m.gapStart = off
		m.gapEnd -= n
	} else if off > m.gapStart {
		n := off - m.gapStart
		copy(m.runes[m.gapStart:], m.runes[m.gapEnd:m.gapEnd+n])
		m.gapStart += n
		m.gapEnd += n
	}
}

// grow ensures the gap has room for at least n more runes.
func (m *memBacking) grow(n int) {
	gap := m.gapEnd - m.gapStart
	if gap >= n {
		return
	}
	newCap := len(m.runes)*2 + n
	if newCap < 64 {
		newCap = 64 + n
	}
	nr := make([]rune, newCap)
	copy(nr, m.runes[:m.gapStart])
	tail := len(m.runes) - m.gapEnd
	copy(nr[newCap-tail:], m.runes[m.gapEnd:])
	m.gapEnd = newCap - tail
	m.runes = nr
}

// insert decodes s into the gap and its newlines into the line index in
// one pass: the newlines are counted first, so the index opens room for
// them once, and every later newline shifts by n.
func (m *memBacking) insert(off int, s string, n int) {
	m.grow(n)
	m.moveGap(off)
	i := sort.SearchInts(m.newlines, off)
	count := strings.Count(s, "\n")
	old := len(m.newlines)
	m.newlines = slices.Grow(m.newlines, count)[:old+count]
	copy(m.newlines[i+count:], m.newlines[i:old])
	for k := i + count; k < len(m.newlines); k++ {
		m.newlines[k] += n
	}
	rs := m.runes[m.gapStart : m.gapStart+n]
	j := 0
	for _, r := range s {
		if r == '\n' {
			m.newlines[i] = off + j
			i++
		}
		rs[j] = r
		j++
	}
	m.gapStart += n
	if m.onMem != nil {
		m.onMem(n)
	}
}

func (m *memBacking) remove(off, n int) {
	m.moveGap(off)
	m.gapEnd += n
	m.indexDelete(off, n)
	if m.onMem != nil {
		m.onMem(-n)
	}
}

// indexDelete drops newlines inside the deleted range [off, off+n) and
// shifts every later newline down by n.
func (m *memBacking) indexDelete(off, n int) {
	i := sort.SearchInts(m.newlines, off)
	j := sort.SearchInts(m.newlines, off+n)
	if i != j {
		copy(m.newlines[i:], m.newlines[j:])
		m.newlines = m.newlines[:len(m.newlines)-(j-i)]
	}
	for k := i; k < len(m.newlines); k++ {
		m.newlines[k] -= n
	}
}

func (m *memBacking) nNewlines() int         { return len(m.newlines) }
func (m *memBacking) newlineOff(i int) int   { return m.newlines[i] }
func (m *memBacking) newlineIdx(off int) int { return sort.SearchInts(m.newlines, off) }
func (m *memBacking) memRunes() int          { return m.length() }
func (m *memBacking) setOnMem(fn func(int))  { m.onMem = fn }

func (m *memBacking) bytesTotal() int64 {
	var total int64
	total += runesByteLen(m.runes[:m.gapStart])
	total += runesByteLen(m.runes[m.gapEnd:])
	return total
}

func (m *memBacking) seekByte(off int64) (int, int64) {
	k, bo := byteSeek(m.runes[:m.gapStart], off)
	if k == m.gapStart {
		k2, bo2 := byteSeek(m.runes[m.gapEnd:], off-bo)
		k, bo = k+k2, bo+bo2
	}
	return k, bo
}

func (m *memBacking) clone() backing {
	n := m.length()
	out := make([]rune, n)
	copy(out, m.runes[:m.gapStart])
	copy(out[m.gapStart:], m.runes[m.gapEnd:])
	return &memBacking{
		runes:    out,
		gapStart: n,
		gapEnd:   n,
		newlines: append([]int(nil), m.newlines...),
	}
}
