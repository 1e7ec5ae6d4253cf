package text

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"unicode/utf8"
)

// Source provides random-access bytes for a paged buffer: typically a file
// pinned at one generation, so the view stays self-consistent even if the
// underlying file is replaced. ReadAt must be usable from the buffer's
// single-threaded context; Size is the fixed byte length of the content.
type Source interface {
	io.ReaderAt
	Size() int64
}

// defaultPageBytes is the page granularity for file-backed text: large
// enough that a screenful of a log touches one or two pages, small enough
// that residency control is fine-grained. Page boundaries always fall on
// rune boundaries.
const defaultPageBytes = 64 << 10

// scanChunk is the read granularity of the index-building byte scan.
const scanChunk = 256 << 10

// pageIndex is the immutable map of a source built by one streaming byte
// scan at attach time: for each fixed-size page, its starting byte offset
// (rune-aligned), and cumulative rune and newline counts. It is what lets
// line and offset queries run in O(log pages) without touching unresident
// pages, and it is shared — never copied — between clones.
type pageIndex struct {
	byteOff []int64 // len npages+1; raw source byte offset where page i starts
	cumR    []int   // len npages+1; runes before page i
	cumN    []int   // len npages+1; newlines before page i
	// cumE is the cumulative UTF-8 *encoded* length of the decoded runes
	// before page i. It differs from byteOff only when the source holds
	// invalid UTF-8 (each bad byte decodes to a 3-byte U+FFFD); raw
	// offsets address the source for paging, encoded offsets are the
	// byte space ByteReader and the file interface serve.
	cumE []int64
}

func (ix *pageIndex) npages() int { return len(ix.byteOff) - 1 }

// pageRunes returns the rune count of page no.
func (ix *pageIndex) pageRunes(no int) int { return ix.cumR[no+1] - ix.cumR[no] }

// pageOfRune returns the page containing file rune offset fr.
func (ix *pageIndex) pageOfRune(fr int) int {
	return sort.Search(ix.npages(), func(i int) bool { return ix.cumR[i+1] > fr })
}

// pageOfNewline returns the page containing the fnl-th file newline.
func (ix *pageIndex) pageOfNewline(fnl int) int {
	return sort.Search(ix.npages(), func(i int) bool { return ix.cumN[i+1] > fnl })
}

// pageOfEncByte returns the page containing encoded byte offset eb.
func (ix *pageIndex) pageOfEncByte(eb int64) int {
	return sort.Search(ix.npages(), func(i int) bool { return ix.cumE[i+1] > eb })
}

// buildPageIndex streams src once, decoding UTF-8 byte-wise (invalid bytes
// become one U+FFFD each, matching []rune(string)) and closing a page at
// the first rune boundary at or past pageBytes. No rune data is retained:
// the scan is the price of knowing NLines and byte↔rune mapping up front,
// and it runs at memcpy-like speed for ASCII-dominated content.
func buildPageIndex(src Source, pageBytes int) (*pageIndex, error) {
	size := src.Size()
	ix := &pageIndex{byteOff: []int64{0}, cumR: []int{0}, cumN: []int{0}, cumE: []int64{0}}
	var (
		runes, nls int   // running totals
		enc        int64 // running encoded length of the decoded runes
		curPage    int   // bytes accumulated in the open page
		pos        int64 // absolute offset of the next unread byte
		carry      []byte
		chunk      = make([]byte, scanChunk)
	)
	closePage := func() {
		// pos is the absolute offset of the next unconsumed byte, which
		// is exactly where the next page starts.
		ix.byteOff = append(ix.byteOff, pos)
		ix.cumR = append(ix.cumR, runes)
		ix.cumN = append(ix.cumN, nls)
		ix.cumE = append(ix.cumE, enc)
		curPage = 0
	}
	// decode consumes a window of the stream and reports bytes used; a
	// trailing partial rune is left unconsumed unless final is set.
	decode := func(buf []byte, final bool) int {
		i := 0
		for i < len(buf) {
			c := buf[i]
			if c < utf8.RuneSelf {
				// ASCII run, bounded by the page boundary.
				run := len(buf) - i
				if room := pageBytes - curPage; run > room {
					run = room
				}
				j := i
				lim := i + run
				for j < lim && buf[j] < utf8.RuneSelf {
					j++
				}
				if j > i {
					nls += bytes.Count(buf[i:j], []byte{'\n'})
					runes += j - i
					curPage += j - i
					pos += int64(j - i)
					enc += int64(j - i)
					i = j
					if curPage >= pageBytes {
						closePage()
					}
					continue
				}
				// run was clamped to zero by a full page
				if pageBytes-curPage == 0 {
					closePage()
					continue
				}
			}
			if !utf8.FullRune(buf[i:]) && !final {
				break // partial rune: wait for more bytes
			}
			r, sz := utf8.DecodeRune(buf[i:])
			runes++
			curPage += sz
			pos += int64(sz)
			if r == utf8.RuneError && sz == 1 {
				enc += int64(utf8.RuneLen(utf8.RuneError))
			} else {
				enc += int64(sz)
			}
			i += sz
			if curPage >= pageBytes {
				closePage()
			}
		}
		return i
	}
	var read int64
	for read < size {
		want := int64(len(chunk) - len(carry))
		if want > size-read {
			want = size - read
		}
		n, err := src.ReadAt(chunk[len(carry):int64(len(carry))+want], read)
		read += int64(n)
		buf := chunk[:len(carry)+n]
		used := decode(buf, read >= size)
		carry = carry[:0]
		carry = append(carry, buf[used:]...)
		copy(chunk, carry)
		if err != nil && err != io.EOF {
			return nil, err
		}
		if err == io.EOF && read < size {
			return nil, fmt.Errorf("text: paged source shrank: read %d of %d bytes", read, size)
		}
		if n == 0 && err == nil {
			return nil, fmt.Errorf("text: paged source returned no data at %d", read)
		}
	}
	if len(carry) > 0 {
		// Trailing partial rune at true EOF: invalid bytes, one rune each.
		decode(carry, true)
		carry = nil
	}
	if curPage > 0 {
		closePage()
	}
	if pos != size {
		return nil, fmt.Errorf("text: paged index scanned %d bytes, want %d", pos, size)
	}
	return ix, nil
}

// page is one decoded file segment: its runes plus the rune offsets of
// its newlines, linked into the cache's LRU list.
type page struct {
	no         int
	runes      []rune
	nlOff      []int32 // rune offsets of '\n' within the page, ascending
	prev, next *page
}

// pageCache holds decoded pages with LRU eviction under a resident-rune
// cap. The most recently touched page is never evicted, so a fault always
// leaves its page usable.
type pageCache struct {
	pages      map[int]*page
	head, tail *page // head = most recent
	totalRunes int
	capRunes   int
	onMem      func(delta int)
}

func newPageCache(capRunes int) *pageCache {
	return &pageCache{pages: make(map[int]*page), capRunes: capRunes}
}

func (c *pageCache) unlink(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (c *pageCache) pushFront(p *page) {
	p.next = c.head
	if c.head != nil {
		c.head.prev = p
	}
	c.head = p
	if c.tail == nil {
		c.tail = p
	}
}

func (c *pageCache) get(no int) *page {
	p := c.pages[no]
	if p == nil {
		return nil
	}
	if c.head != p {
		c.unlink(p)
		c.pushFront(p)
	}
	return p
}

// add inserts a freshly decoded page and evicts least-recently-used pages
// until the cache fits its cap again (always keeping the new page).
func (c *pageCache) add(p *page) {
	c.pages[p.no] = p
	c.pushFront(p)
	c.totalRunes += len(p.runes)
	if c.onMem != nil {
		c.onMem(len(p.runes))
	}
	for c.totalRunes > c.capRunes && c.tail != nil && c.tail != p {
		ev := c.tail
		c.unlink(ev)
		delete(c.pages, ev.no)
		c.totalRunes -= len(ev.runes)
		if c.onMem != nil {
			c.onMem(-len(ev.runes))
		}
	}
}

// piece is one span of the document: either a range of the immutable
// original file (identified by its file rune/byte/newline coordinates) or
// a range of the append-only add store.
type piece struct {
	add   bool
	n     int   // rune length
	nls   int   // newlines within the piece
	bytes int64 // UTF-8 encoded byte length

	// add pieces: start offset in the add store.
	off int

	// file pieces: coordinates of the piece start within the original.
	fr0  int   // file rune offset
	b0   int64 // file *encoded* byte offset (cumE space, not raw)
	fnl0 int   // file newline index
}

// pagedBacking is a piece table over src: the original file is never
// materialized wholesale; instead pieces reference byte ranges of it,
// decoded page-by-page on demand and cached under a resident-rune cap,
// while insertions accumulate in an append-only rune store. Structural
// metadata (piece prefix sums) is rebuilt per edit in O(pieces), which is
// bounded by edit count, not file size.
type pagedBacking struct {
	src       Source
	pageBytes int
	idx       *pageIndex
	cache     *pageCache

	pieces []piece
	cumR   []int   // len(pieces)+1 prefix rune counts
	cumN   []int   // prefix newline counts
	cumB   []int64 // prefix byte counts

	add    []rune
	addNls []int // offsets into add of every '\n', ascending (append-only)

	onMem func(delta int)

	// rbuf is the read buffer fault fills, reused for every page; only
	// the decoded runes outlive a fault.
	rbuf []byte

	// Sequential-access hints: the piece and page hit by the last
	// lookup, making per-rune rendering scans O(1) amortized.
	lastPiece int
	lastPage  int
}

// newPagedBacking indexes src and returns a backing with everything
// unresident. maxResident is a byte budget converted to a rune cap
// (4 bytes/rune, matching how sessions charge buffer memory); it is
// floored at one page so a fault can always complete.
func newPagedBacking(src Source, maxResident int64, pageBytes int) (*pagedBacking, error) {
	ix, err := buildPageIndex(src, pageBytes)
	if err != nil {
		return nil, err
	}
	capRunes := int(maxResident / 4)
	if capRunes < pageBytes {
		capRunes = pageBytes
	}
	pb := &pagedBacking{
		src:       src,
		pageBytes: pageBytes,
		idx:       ix,
		cache:     newPageCache(capRunes),
	}
	total := ix.cumR[ix.npages()]
	if total > 0 {
		pb.pieces = []piece{{
			n:     total,
			nls:   ix.cumN[ix.npages()],
			bytes: ix.cumE[ix.npages()],
		}}
	}
	pb.rebuildCums()
	return pb, nil
}

// rebuildCums recomputes the piece prefix sums after a structural edit.
func (pb *pagedBacking) rebuildCums() {
	if cap(pb.cumR) < len(pb.pieces)+1 {
		pb.cumR = make([]int, len(pb.pieces)+1)
		pb.cumN = make([]int, len(pb.pieces)+1)
		pb.cumB = make([]int64, len(pb.pieces)+1)
	} else {
		pb.cumR = pb.cumR[:len(pb.pieces)+1]
		pb.cumN = pb.cumN[:len(pb.pieces)+1]
		pb.cumB = pb.cumB[:len(pb.pieces)+1]
	}
	pb.cumR[0], pb.cumN[0], pb.cumB[0] = 0, 0, 0
	for i, pc := range pb.pieces {
		pb.cumR[i+1] = pb.cumR[i] + pc.n
		pb.cumN[i+1] = pb.cumN[i] + pc.nls
		pb.cumB[i+1] = pb.cumB[i] + pc.bytes
	}
	pb.lastPiece = 0
}

func (pb *pagedBacking) length() int { return pb.cumR[len(pb.pieces)] }

// findPiece returns the index of the piece containing rune offset off,
// which must satisfy 0 <= off < length. A one-entry hint makes sequential
// scans constant-time.
func (pb *pagedBacking) findPiece(off int) int {
	if h := pb.lastPiece; h < len(pb.pieces) {
		if pb.cumR[h] <= off && off < pb.cumR[h+1] {
			return h
		}
		if h+1 < len(pb.pieces) && pb.cumR[h+1] <= off && off < pb.cumR[h+2] {
			pb.lastPiece = h + 1
			return h + 1
		}
	}
	i := sort.Search(len(pb.pieces), func(k int) bool { return pb.cumR[k+1] > off })
	pb.lastPiece = i
	return i
}

// fault returns page no, decoding it from the source if unresident. A
// read failure (the pinned source is gone or shrank) degrades to a
// synthesized page of the indexed shape — the right newline count, the
// remainder U+FFFD — so the view stays structurally consistent; the
// source owner reports the condition out of band.
func (pb *pagedBacking) fault(no int) *page {
	if p := pb.cache.get(no); p != nil {
		return p
	}
	b0, b1 := pb.idx.byteOff[no], pb.idx.byteOff[no+1]
	if int64(cap(pb.rbuf)) < b1-b0 {
		pb.rbuf = make([]byte, b1-b0)
	}
	buf := pb.rbuf[:b1-b0]
	ok := true
	for got := 0; got < len(buf); {
		n, err := pb.src.ReadAt(buf[got:], b0+int64(got))
		got += n
		if err != nil || n == 0 {
			if got >= len(buf) && err == io.EOF {
				break
			}
			ok = false
			break
		}
	}
	p := &page{no: no}
	if ok {
		p.runes, p.nlOff = decodePage(buf)
	}
	if !ok || len(p.runes) != pb.idx.pageRunes(no) || len(p.nlOff) != pb.idx.cumN[no+1]-pb.idx.cumN[no] {
		p.runes, p.nlOff = synthPage(pb.idx.pageRunes(no), pb.idx.cumN[no+1]-pb.idx.cumN[no])
	}
	pb.cache.onMem = pb.onMem
	pb.cache.add(p)
	return p
}

// decodePage decodes one page's bytes into runes plus newline offsets.
// Page boundaries are rune-aligned, so the page decodes standalone with
// the same semantics as the index scan.
func decodePage(buf []byte) ([]rune, []int32) {
	runes := make([]rune, 0, len(buf))
	nls := make([]int32, 0, bytes.Count(buf, []byte{'\n'}))
	for i := 0; i < len(buf); {
		c := buf[i]
		if c < utf8.RuneSelf {
			if c == '\n' {
				nls = append(nls, int32(len(runes)))
			}
			runes = append(runes, rune(c))
			i++
			continue
		}
		r, sz := utf8.DecodeRune(buf[i:])
		runes = append(runes, r)
		i += sz
	}
	return runes, nls
}

// synthPage fabricates a page with nRunes runes of which the last nNls
// are newlines, used when the source cannot be read back: structurally
// consistent with the index even though the text is gone. Newlines sit at
// the end so a file whose last page ended in '\n' keeps its line count.
func synthPage(nRunes, nNls int) ([]rune, []int32) {
	runes := make([]rune, nRunes)
	nls := make([]int32, nNls)
	for i := range runes {
		if i >= nRunes-nNls {
			runes[i] = '\n'
			nls[i-(nRunes-nNls)] = int32(i)
		} else {
			runes[i] = utf8.RuneError
		}
	}
	return runes, nls
}

// pageFor faults the page containing file rune offset fr and returns it
// with fr's index within the page.
func (pb *pagedBacking) pageFor(fr int) (*page, int) {
	no := pb.lastPage
	if !(no < pb.idx.npages() && pb.idx.cumR[no] <= fr && fr < pb.idx.cumR[no+1]) {
		no = pb.idx.pageOfRune(fr)
		pb.lastPage = no
	}
	return pb.fault(no), fr - pb.idx.cumR[no]
}

// run returns the add-store span of off's piece, or the part of one
// page that lies inside it.
func (pb *pagedBacking) run(off int) ([]rune, int) {
	i := pb.findPiece(off)
	pc := &pb.pieces[i]
	if pc.add {
		return pb.add[pc.off : pc.off+pc.n], pb.cumR[i]
	}
	fr := pc.fr0 + off - pb.cumR[i]
	pg, k := pb.pageFor(fr)
	p0 := fr - k // file rune offset of the page's first rune
	lo, hi := max(pc.fr0, p0), min(pc.fr0+pc.n, p0+len(pg.runes))
	return pg.runes[lo-p0 : hi-p0], pb.cumR[i] + lo - pc.fr0
}

// fileStatAt returns the encoded byte offset and newline index of file
// rune offset fr. Page-boundary offsets answer from the index alone;
// interior offsets fault the page and scan up to one page of runes.
func (pb *pagedBacking) fileStatAt(fr int) (int64, int) {
	no := pb.idx.pageOfRune(fr)
	if fr == pb.idx.cumR[no] {
		return pb.idx.cumE[no], pb.idx.cumN[no]
	}
	pg := pb.fault(no)
	k := fr - pb.idx.cumR[no]
	b := pb.idx.cumE[no] + runesByteLen(pg.runes[:k])
	nl := pb.idx.cumN[no] + searchInt32(pg.nlOff, int32(k))
	return b, nl
}

// searchInt32 is sort.SearchInts for []int32: the number of elements
// strictly below x.
func searchInt32(a []int32, x int32) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= x })
}

// countAddNls returns how many newlines the add store holds in [lo, hi).
func (pb *pagedBacking) countAddNls(lo, hi int) int {
	return sort.SearchInts(pb.addNls, hi) - sort.SearchInts(pb.addNls, lo)
}

// splitPiece splits piece i at piece-relative rune offset rel (0 < rel <
// n), producing two pieces covering the same text. Prefix sums are NOT
// rebuilt; callers do that once their structural edit is complete.
func (pb *pagedBacking) splitPiece(i, rel int) {
	pc := pb.pieces[i]
	var left, right piece
	if pc.add {
		leftNls := pb.countAddNls(pc.off, pc.off+rel)
		leftBytes := runesByteLen(pb.add[pc.off : pc.off+rel])
		left = piece{add: true, off: pc.off, n: rel, nls: leftNls, bytes: leftBytes}
		right = piece{add: true, off: pc.off + rel, n: pc.n - rel, nls: pc.nls - leftNls, bytes: pc.bytes - leftBytes}
	} else {
		cutB, cutNl := pb.fileStatAt(pc.fr0 + rel)
		left = piece{n: rel, nls: cutNl - pc.fnl0, bytes: cutB - pc.b0, fr0: pc.fr0, b0: pc.b0, fnl0: pc.fnl0}
		right = piece{n: pc.n - rel, nls: pc.nls - left.nls, bytes: pc.bytes - left.bytes,
			fr0: pc.fr0 + rel, b0: cutB, fnl0: cutNl}
	}
	pb.pieces = append(pb.pieces, piece{})
	copy(pb.pieces[i+2:], pb.pieces[i+1:])
	pb.pieces[i] = left
	pb.pieces[i+1] = right
}

// boundary ensures a piece boundary exists at rune offset off and returns
// the index of the piece starting there (len(pieces) for off == length).
// It rebuilds prefix sums when it splits.
func (pb *pagedBacking) boundary(off int) int {
	if off == pb.length() {
		return len(pb.pieces)
	}
	i := pb.findPiece(off)
	rel := off - pb.cumR[i]
	if rel == 0 {
		return i
	}
	pb.splitPiece(i, rel)
	pb.rebuildCums()
	return i + 1
}

func (pb *pagedBacking) insert(off int, s string, n int) {
	nls := 0
	base := len(pb.add)
	pb.add = slices.Grow(pb.add, n)
	for _, r := range s {
		if r == '\n' {
			nls++
			pb.addNls = append(pb.addNls, len(pb.add))
		}
		pb.add = append(pb.add, r)
	}
	blen := runesByteLen(pb.add[base:])

	i := pb.boundary(off)
	// Coalesce sequential typing: extend a preceding add piece that ends
	// exactly at the old end of the add store.
	if i > 0 {
		if pc := &pb.pieces[i-1]; pc.add && pc.off+pc.n == base {
			pc.n += n
			pc.nls += nls
			pc.bytes += blen
			pb.rebuildCums()
			if pb.onMem != nil {
				pb.onMem(n)
			}
			return
		}
	}
	np := piece{add: true, off: base, n: n, nls: nls, bytes: blen}
	pb.pieces = append(pb.pieces, piece{})
	copy(pb.pieces[i+1:], pb.pieces[i:])
	pb.pieces[i] = np
	pb.rebuildCums()
	if pb.onMem != nil {
		pb.onMem(n)
	}
}

func (pb *pagedBacking) remove(off, n int) {
	i := pb.boundary(off)
	j := pb.boundary(off + n)
	pb.pieces = append(pb.pieces[:i], pb.pieces[j:]...)
	pb.rebuildCums()
	// No residency change: pages stay cached until evicted and the add
	// store is append-only, so deleting pieces frees no resident runes.
}

func (pb *pagedBacking) nNewlines() int { return pb.cumN[len(pb.pieces)] }

func (pb *pagedBacking) newlineOff(i int) int {
	p := sort.Search(len(pb.pieces), func(k int) bool { return pb.cumN[k+1] > i })
	pc := &pb.pieces[p]
	rel := i - pb.cumN[p] // rel-th newline within the piece
	if pc.add {
		start := sort.SearchInts(pb.addNls, pc.off)
		return pb.cumR[p] + (pb.addNls[start+rel] - pc.off)
	}
	fnl := pc.fnl0 + rel
	no := pb.idx.pageOfNewline(fnl)
	pg := pb.fault(no)
	k := int(pg.nlOff[fnl-pb.idx.cumN[no]])
	fr := pb.idx.cumR[no] + k
	return pb.cumR[p] + (fr - pc.fr0)
}

func (pb *pagedBacking) newlineIdx(off int) int {
	if off >= pb.length() {
		return pb.nNewlines()
	}
	i := pb.findPiece(off)
	pc := &pb.pieces[i]
	rel := off - pb.cumR[i]
	if rel == 0 {
		return pb.cumN[i]
	}
	if pc.add {
		return pb.cumN[i] + pb.countAddNls(pc.off, pc.off+rel)
	}
	fr := pc.fr0 + rel
	no := pb.idx.pageOfRune(fr)
	var fileNl int
	if fr == pb.idx.cumR[no] {
		fileNl = pb.idx.cumN[no]
	} else {
		pg := pb.fault(no)
		fileNl = pb.idx.cumN[no] + searchInt32(pg.nlOff, int32(fr-pb.idx.cumR[no]))
	}
	return pb.cumN[i] + (fileNl - pc.fnl0)
}

func (pb *pagedBacking) memRunes() int { return pb.cache.totalRunes + len(pb.add) }

func (pb *pagedBacking) setOnMem(fn func(int)) {
	pb.onMem = fn
	pb.cache.onMem = fn
}

func (pb *pagedBacking) bytesTotal() int64 { return pb.cumB[len(pb.pieces)] }

func (pb *pagedBacking) seekByte(off int64) (int, int64) {
	if off >= pb.bytesTotal() {
		return pb.length(), pb.bytesTotal()
	}
	i := sort.Search(len(pb.pieces), func(k int) bool { return pb.cumB[k+1] > off })
	pc := &pb.pieces[i]
	rel := off - pb.cumB[i]
	if pc.add {
		k, bo := byteSeek(pb.add[pc.off:pc.off+pc.n], rel)
		return pb.cumR[i] + k, pb.cumB[i] + bo
	}
	fb := pc.b0 + rel
	no := pb.idx.pageOfEncByte(fb)
	pg := pb.fault(no)
	k, bo := byteSeek(pg.runes, fb-pb.idx.cumE[no])
	if k == len(pg.runes) {
		// Only a placeholder page (synthPage) encodes shorter than its
		// index entry; land on the next page's first rune.
		no, k, bo = no+1, 0, 0
	}
	fr, fByte := pb.idx.cumR[no]+k, pb.idx.cumE[no]+bo
	return pb.cumR[i] + (fr - pc.fr0), pb.cumB[i] + (fByte - pc.b0)
}

// clone copies the piece table and add store and shares the immutable
// source and page index; the page cache starts empty so each clone's
// residency is accounted to its own budget.
func (pb *pagedBacking) clone() backing {
	nb := &pagedBacking{
		src:       pb.src,
		pageBytes: pb.pageBytes,
		idx:       pb.idx,
		cache:     newPageCache(pb.cache.capRunes),
		pieces:    append([]piece(nil), pb.pieces...),
		add:       append([]rune(nil), pb.add...),
		addNls:    append([]int(nil), pb.addNls...),
	}
	nb.rebuildCums()
	return nb
}
