// Package journal provides the write-ahead log behind crash-safe help
// sessions. The design follows classic database recovery split into a
// help-sized shape:
//
//   - Every session mutation is an Op — a small, self-describing record
//     (splice, selection, window placement, snarf, file write, ...)
//     stamped with a strictly increasing generation number.
//   - An Op is written as one record of one or more frames, each
//     [4-byte length word][4-byte CRC32-C][payload]. A frame holds at
//     most MaxRecord payload bytes; a longer record is split into full
//     MaxRecord frames and a last shorter one, and the top bit of a
//     frame's length word says another frame of the same record follows
//     (LevelDB's log does the same).
//     Records are appended to segment files named wal-<gen>.log, where
//     <gen> is the generation of the checkpoint the segment follows.
//   - Periodically the whole session is written as a checkpoint: the
//     list of Ops that rebuilds it from an empty one, framed exactly
//     like segment records, behind one header and checksum, written
//     atomically via tmp+rename. Older segments are then deleted
//     (compaction), so the journal's size is bounded by one checkpoint
//     plus the tail of ops since.
//   - Recovery = apply the checkpoint's ops, then the ops with
//     generation greater than the checkpoint's, in order, through one
//     replay path. A torn final record (power cut mid-append) is
//     detected by the framing and discarded; corruption anywhere else is
//     reported as ErrCorrupt, never replayed and never panicking.
//
// The Writer batches appends through a single background goroutine
// (group commit) so the interactive event loop never blocks on fsync.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// OpKind enumerates the record types the session journal uses. The
// values are part of the on-disk format; append only. The same kinds
// serve the WAL and the checkpoint: a checkpoint is OpSession followed
// by the records that rebuild every window, the layout, the namespace,
// focus and snarf, in the order documented on core's checkpointOps.
type OpKind byte

const (
	// OpSplice: body/tag text edit. Win/Sub locate the buffer, P0 is
	// the rune offset, P1 the number of runes deleted, Str1 the runes
	// inserted. A checkpoint carries each tag and body as one insert.
	OpSplice OpKind = 1
	// OpClean: the buffer's Modified flag changed. Flag true = clean.
	OpClean OpKind = 2
	// OpSelect: selection changed. Win/Sub, P0=q0, P1=q1.
	OpSelect OpKind = 3
	// OpCurrent: the current (focus) window/subwindow changed; Win 0
	// means none.
	OpCurrent OpKind = 4
	// OpSnarf: the snarf buffer changed. Str1 is the new contents.
	OpSnarf OpKind = 5
	// OpNewWin: window Win was created, empty and hidden until its
	// OpPlace. Flag is IsDir.
	OpNewWin OpKind = 6
	// OpCloseWin: window Win was closed.
	OpCloseWin OpKind = 7
	// OpPlace: window Win moved: P0=column index, P1=top row,
	// P2 packs hidden (bit 0) and IsDir (bit 1).
	OpPlace OpKind = 8
	// OpScroll: window Win's body origin changed to P0.
	OpScroll OpKind = 9
	// OpColSplit: the column split moved; P0 is column 0's right edge.
	OpColSplit OpKind = 10
	// OpFile: a namespace mutation. P0 is a vfs mutation kind
	// (write/append/remove/mkdir/bind), Str1 the path (or bind
	// source), Str2 the written bytes (or bind mountpoint), P1 the
	// bind flag.
	OpFile OpKind = 11
	// OpErrors: the Errors window identity changed; Win is the new
	// Errors window's id, 0 for none.
	OpErrors OpKind = 12
	// OpSession opens every checkpoint: the screen is P0×P1 and the
	// next window id is P2. It never appears in a segment.
	OpSession OpKind = 13
)

// Op is one journal record. The fields are a superset; each kind uses
// the subset documented on its constant. Gen is assigned by the Writer.
type Op struct {
	Kind OpKind
	Gen  uint64
	Win  int
	Sub  int
	P0   int
	P1   int
	P2   int
	Flag bool
	Str1 string
	Str2 string
}

// File-format constants. Magic numbers lead every file so recovery can
// tell a torn header from a foreign file.
const (
	segMagic  = "HELPWAL1"
	ckptMagic = "HELPCKP2"

	segHeaderLen  = 16 // magic + base generation
	recHeaderLen  = 8  // length word + CRC32
	ckptHeaderLen = 24 // magic + generation + length + CRC32

	// frameMore, set in a frame's length word, says that another frame
	// of the same record follows.
	frameMore = 1 << 31

	// MaxRecord bounds a single frame's payload; a longer record is
	// split across frames. A larger length in a frame header is
	// corruption, not a real frame: the bound keeps a flipped length bit
	// from provoking a giant allocation.
	MaxRecord = 1 << 26

	// maxOpFixed bounds an encoded op's bytes besides its two strings:
	// the kind, the flag and eight varints (generation, window, subwindow,
	// P0-P2 and the two string lengths).
	maxOpFixed = 2 + 8*binary.MaxVarintLen64
)

// ErrCorrupt reports a journal that is damaged somewhere other than
// the final record of the final segment. Torn final records are
// expected after a crash and are silently discarded; mid-file damage
// means the medium lied and recovery must not guess.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrNoState reports an empty journal directory: nothing to recover.
var ErrNoState = errors.New("journal: no checkpoint or segments")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendOpPayload encodes op (including its generation) onto dst.
func appendOpPayload(dst []byte, op *Op) []byte {
	dst = append(dst, byte(op.Kind))
	dst = binary.AppendUvarint(dst, op.Gen)
	dst = binary.AppendVarint(dst, int64(op.Win))
	dst = binary.AppendVarint(dst, int64(op.Sub))
	dst = binary.AppendVarint(dst, int64(op.P0))
	dst = binary.AppendVarint(dst, int64(op.P1))
	dst = binary.AppendVarint(dst, int64(op.P2))
	if op.Flag {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(op.Str1)))
	dst = append(dst, op.Str1...)
	dst = binary.AppendUvarint(dst, uint64(len(op.Str2)))
	dst = append(dst, op.Str2...)
	return dst
}

// decoder is a bounds-checked cursor over a record payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail(what)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint(what string) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || v < int64(-1<<31) || v > int64(1<<31) {
		d.fail(what)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *decoder) str(what string) string {
	if d.err != nil {
		return ""
	}
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// decodeOpPayload decodes a record payload produced by appendOpPayload.
// It never panics; malformed input yields an error wrapping ErrCorrupt.
func decodeOpPayload(b []byte) (Op, error) {
	d := decoder{b: b}
	var op Op
	op.Kind = OpKind(d.byte("kind"))
	op.Gen = d.uvarint("gen")
	op.Win = d.varint("win")
	op.Sub = d.varint("sub")
	op.P0 = d.varint("p0")
	op.P1 = d.varint("p1")
	op.P2 = d.varint("p2")
	op.Flag = d.byte("flag") != 0
	op.Str1 = d.str("str1")
	op.Str2 = d.str("str2")
	if d.err == nil && d.off != len(d.b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return Op{}, d.err
	}
	if op.Kind < OpSplice || op.Kind > OpSession {
		return Op{}, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, op.Kind)
	}
	return op, nil
}

// recordCap bounds the bytes appendRecord adds for op, so a caller can
// size its buffer once.
func recordCap(op *Op) int {
	n := maxOpFixed + len(op.Str1) + len(op.Str2)
	return n + (n/MaxRecord+1)*recHeaderLen
}

// appendRecord frames op onto dst as one record. The payload is encoded
// in place behind a frame header that is filled in afterwards. A payload
// longer than MaxRecord is then split in place into frames of at most
// MaxRecord bytes, each but the last flagged frameMore: frame k moves k
// headers up, last frame first, so no byte is overwritten before it has
// moved. With cap(dst) grown by recordCap, nothing is reallocated.
func appendRecord(dst []byte, op *Op) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderLen)...)
	dst = appendOpPayload(dst, op)
	n := len(dst) - start - recHeaderLen
	frames := max(1, (n+MaxRecord-1)/MaxRecord)
	dst = append(dst, make([]byte, (frames-1)*recHeaderLen)...)
	for k := frames - 1; k >= 0; k-- {
		lo, hi := k*MaxRecord, min((k+1)*MaxRecord, n)
		at := start + k*(MaxRecord+recHeaderLen)
		body := dst[at+recHeaderLen : at+recHeaderLen+hi-lo]
		if k > 0 {
			copy(body, dst[start+recHeaderLen+lo:start+recHeaderLen+hi])
		}
		word := uint32(hi - lo)
		if k < frames-1 {
			word |= frameMore
		}
		binary.LittleEndian.PutUint32(dst[at:at+4], word)
		binary.LittleEndian.PutUint32(dst[at+4:at+8], crc32.Checksum(body, crcTable))
	}
	return dst
}

// EncodeOp frames op as a complete on-disk record, in one allocation.
// The byte sequence a given op produces is independent of batching,
// which is what makes a journal byte stream deterministic for a given
// session script.
func EncodeOp(op *Op) []byte {
	return appendRecord(make([]byte, 0, recordCap(op)), op)
}

// skipRecord checks the framing of the record at b[off:] and returns
// the offset just past it. A record that b cuts short, or whose final
// frame ends b with a bad checksum (a torn in-place write), is reported
// through torn; damage that no crash can produce is reported through
// bad. At most one of the two is set.
func skipRecord(b []byte, off int) (next int, torn, bad string) {
	for {
		if off+recHeaderLen > len(b) {
			return 0, "torn record header", ""
		}
		word := binary.LittleEndian.Uint32(b[off : off+4])
		n := int(word &^ frameMore)
		if n > MaxRecord {
			// An absurd length is a flipped bit, not a torn write.
			return 0, "", fmt.Sprintf("record length %d", n)
		}
		if word&frameMore != 0 && n != MaxRecord {
			// The writer continues a record only past a full frame. The
			// checksum does not cover frameMore, so this is what
			// catches the bit flipped on.
			return 0, "", fmt.Sprintf("continued frame length %d", n)
		}
		if off+recHeaderLen+n > len(b) {
			return 0, "torn record body", ""
		}
		body := b[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[off+4:off+8]) {
			if off+recHeaderLen+n == len(b) {
				return 0, "checksum mismatch on final record", ""
			}
			return 0, "", "record checksum"
		}
		off += recHeaderLen + n
		if word&frameMore == 0 {
			return off, "", ""
		}
	}
}

// nextRecord frames the record at b[off:] as skipRecord does and
// returns its payload too: in place when the record is one frame, its
// frames joined into a fresh buffer otherwise.
func nextRecord(b []byte, off int) (payload []byte, next int, torn, bad string) {
	next, torn, bad = skipRecord(b, off)
	if torn != "" || bad != "" {
		return nil, 0, torn, bad
	}
	if binary.LittleEndian.Uint32(b[off:off+4])&frameMore == 0 {
		return b[off+recHeaderLen : next], next, "", ""
	}
	payload = make([]byte, 0, next-off)
	for p := off; p < next; {
		n := int(binary.LittleEndian.Uint32(b[p:p+4]) &^ frameMore)
		payload = append(payload, b[p+recHeaderLen:p+recHeaderLen+n]...)
		p += recHeaderLen + n
	}
	return payload, next, "", ""
}

// segmentName returns the file name for the segment holding ops after
// checkpoint generation base.
func segmentName(base uint64) string {
	return fmt.Sprintf("wal-%020d.log", base)
}

// parseSegmentName extracts the base generation from a segment name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(digits) == 0 {
		return 0, false
	}
	base, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// appendSegmentHeader writes the segment file header: magic plus the
// base generation, so a renamed file can't masquerade as a segment.
func appendSegmentHeader(dst []byte, base uint64) []byte {
	dst = append(dst, segMagic...)
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], base)
	return append(dst, g[:]...)
}

// encodeCheckpoint writes a checkpoint file: magic, generation, payload
// length and CRC32-C, then the payload, which is ops framed as records.
// The buffer is sized once up front and every op encoded in place.
func encodeCheckpoint(gen uint64, ops []Op) []byte {
	size := ckptHeaderLen
	for i := range ops {
		size += recordCap(&ops[i])
	}
	buf := make([]byte, ckptHeaderLen, size)
	copy(buf, ckptMagic)
	for i := range ops {
		buf = appendRecord(buf, &ops[i])
	}
	payload := buf[ckptHeaderLen:]
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(payload, crcTable))
	return buf
}

// checkpointPayload validates a checkpoint file's header and checksum
// and splits off its payload.
func checkpointPayload(b []byte) (gen uint64, payload []byte, err error) {
	if len(b) < ckptHeaderLen {
		return 0, nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	if string(b[:8]) == "HELPCKP1" {
		// The retired snapshot format: not damage, but unreadable here.
		return 0, nil, errors.New("journal: checkpoint is in the retired HELPCKP1 snapshot format, which this version does not read")
	}
	if string(b[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("%w: checkpoint magic", ErrCorrupt)
	}
	gen = binary.LittleEndian.Uint64(b[8:16])
	n := binary.LittleEndian.Uint32(b[16:20])
	sum := binary.LittleEndian.Uint32(b[20:24])
	if uint64(n) != uint64(len(b)-ckptHeaderLen) {
		return 0, nil, fmt.Errorf("%w: checkpoint length", ErrCorrupt)
	}
	payload = b[ckptHeaderLen:]
	if crc32.Checksum(payload, crcTable) != sum {
		return 0, nil, fmt.Errorf("%w: checkpoint checksum", ErrCorrupt)
	}
	return gen, payload, nil
}

// decodeCheckpoint validates a checkpoint file and decodes its ops. The
// file is written atomically, so unlike a segment it has no torn tail:
// any damage is ErrCorrupt. The result is non-nil even when empty.
func decodeCheckpoint(b []byte) (gen uint64, ops []Op, err error) {
	gen, payload, err := checkpointPayload(b)
	if err != nil {
		return 0, nil, err
	}
	ops, torn, err := decodeRecords(payload, 0)
	if err == nil && torn != "" {
		err = fmt.Errorf("%w: %s", ErrCorrupt, torn)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if ops == nil {
		ops = []Op{}
	}
	return gen, ops, nil
}

// RecordEnds returns every byte offset in a segment file that is a
// whole-record boundary: the end of the header, then the end of each
// well-formed record (after its last frame). Crash-matrix tests
// truncate at (and between) these offsets. Scanning stops at the first
// malformed record. It checks framing only and copies no payload.
func RecordEnds(seg []byte) []int {
	var ends []int
	if len(seg) < segHeaderLen || string(seg[:8]) != segMagic {
		return ends
	}
	off := segHeaderLen
	ends = append(ends, off)
	for off < len(seg) {
		next, torn, bad := skipRecord(seg, off)
		if torn != "" || bad != "" {
			break
		}
		off = next
		ends = append(ends, off)
	}
	return ends
}
