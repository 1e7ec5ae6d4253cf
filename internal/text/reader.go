package text

import (
	"fmt"
	"io"
	"unicode/utf8"
)

// ByteReader adapts a Buffer to io.ReaderAt over its UTF-8 encoding, so
// the file interface can serve body bytes straight from piece slices
// without materializing String(). Sequential reads advance a cursor in
// O(bytes); a random seek costs one byte→rune resolution in the backing.
//
// The reader tracks the buffer's generation: any edit invalidates the
// cursor and the next read re-seeks, observing the current contents
// (reads through the file interface are live, matching the snapshot-free
// semantics a paged buffer can afford).
//
// ByteReader is not safe for concurrent use; like the Buffer itself it
// relies on the session's serialized event loop.
type ByteReader struct {
	b       *Buffer
	gen     uint64
	runeOff int   // next rune to encode
	byteOff int64 // byte offset the cursor corresponds to
	pending []byte
	pbuf    [utf8.UTFMax]byte
}

// NewByteReader returns a reader positioned at byte offset 0.
func NewByteReader(b *Buffer) *ByteReader {
	return &ByteReader{b: b, gen: b.Gen()}
}

// Size returns the buffer's UTF-8 encoded length in bytes.
func (r *ByteReader) Size() int64 { return r.b.bk().bytesTotal() }

// ReadAt implements io.ReaderAt: it fills p with the buffer's UTF-8
// encoding starting at byte offset off, returning io.EOF when the
// buffer ends before p is full.
func (r *ByteReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("text: negative read offset %d", off)
	}
	if g := r.b.Gen(); g != r.gen {
		r.gen = g
		r.byteOff = -1 // force a seek
		r.pending = nil
	}
	if off != r.byteOff {
		r.seek(off)
	}
	n := 0
	total := r.b.Len()
	for n < len(p) {
		if len(r.pending) > 0 {
			c := copy(p[n:], r.pending)
			n += c
			r.pending = r.pending[c:]
			continue
		}
		if r.runeOff >= total {
			break
		}
		sz := utf8.EncodeRune(r.pbuf[:], r.b.At(r.runeOff))
		r.runeOff++
		if sz <= len(p)-n {
			copy(p[n:], r.pbuf[:sz])
			n += sz
		} else {
			c := copy(p[n:], r.pbuf[:sz])
			n += c
			r.pending = r.pbuf[c:sz]
		}
	}
	r.byteOff = off + int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// seek positions the cursor at byte offset off. If off lands inside a
// multi-byte rune, the rune's remaining bytes become pending output.
func (r *ByteReader) seek(off int64) {
	runeOff, runeStart := r.b.bk().seekByte(off)
	r.runeOff = runeOff
	r.pending = nil
	if runeStart < off {
		sz := utf8.EncodeRune(r.pbuf[:], r.b.At(runeOff))
		r.pending = r.pbuf[off-runeStart : sz]
		r.runeOff++
	}
}
