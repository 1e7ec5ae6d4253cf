package srvnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/vfs"
)

// Framing. Every message in either direction — requests, replies, and
// the Seq-0 busy, draining and proto refusals — is one fixed-size
// little-endian header, then the frame's one string, then its payload:
//
//	off size field
//	  0    1 op     the request's operation; opReply on every reply
//	  1    1 code   a reply's status, codeOK or the error's class; 0 on requests
//	  2    2        reserved, zero
//	  4    4 slen   string length, at most maxString
//	  8    4 plen   payload length, at most maxPayload
//	 12    4 sum    CRC-32 of the string and the payload
//	 16    8 seq    sequence number, echoed by the request's reply
//	 24    8 gen    reply: the target file's edit generation (readwait: the resume seq)
//	 32    8 off    readat: byte offset; readwait: the seq to resume after
//	 40    8 count  readat: chunk size (<= 0: defaultReadChunk)
//	 48    4 ms     readwait request: poll bound (0: the server's cap); busy reply: retry-after
//	 52    4 hsum   CRC-32 of bytes 0-51
//
// The string is a request's path, glob pattern or session name, or a
// reply's error text. File contents travel as raw payload bytes, so a
// read costs a copy, not a parse. Decoding is strict: the header CRC is
// checked before any length in it is used, and a frame with nonzero
// reserved bytes, an op or code outside its direction's table, a length
// over its limit or a CRC mismatch is malformed — the server answers it
// with a proto reply and closes the connection, since a byte stream
// cannot be resynced.

const (
	headerSize = 56
	// maxString bounds a frame's string and maxPayload its payload, so a
	// header cannot ask the receiver to allocate gigabytes.
	maxString  = 1 << 20
	maxPayload = 1 << 28
)

var le = binary.LittleEndian

// op is a frame's operation.
type op uint8

const (
	opReply op = iota
	opRead
	opReadAt
	opReadWait
	opWrite
	opAppend
	opStat
	opReadDir
	opGlob
	opMkdir
	opRemove
	opAttach
	numOps
)

// opNames are the Go-side op names: errors and the client's srvnet.<op>
// latency histograms use them.
var opNames = [numOps]string{"reply", "read", "readat", "readwait", "write",
	"append", "stat", "readdir", "glob", "mkdir", "remove", "attach"}

func (o op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// code is a reply's status. Error codes map vfs sentinels (and protocol
// conditions) across the connection so clients can classify failures
// with errors.Is; codeErr is an error with no sentinel.
type code uint8

const (
	codeOK code = iota
	codeErr
	codeNotExist
	codeExist
	codeIsDir
	codeNotDir
	codePerm
	codeBadMode
	codeProto
	codeBusy
	codeDraining
	codeNoSess
	numCodes
)

// frame is one wire message; see the layout above.
type frame struct {
	Op    op
	Code  code
	Seq   uint64
	Gen   uint64
	Off   int64
	Count int64
	MS    uint32
	Str   string
	Data  []byte
}

func malformed(why string) error { return fmt.Errorf("%w: malformed frame: %s", ErrProto, why) }

// The decoder's refusals are fixed values, so refusing a frame
// allocates nothing.
var (
	errHeaderSum  = malformed("header checksum mismatch")
	errReserved   = malformed("nonzero reserved bytes")
	errOp         = malformed("unknown op")
	errCode       = malformed("unknown code")
	errLength     = malformed("length over its limit")
	errPayloadSum = malformed("payload checksum mismatch")
	errEntry      = malformed("bad entry record")
)

// writeFrame emits f onto w. Header and string are assembled in
// scratch, returned (possibly regrown) for the caller to keep, so a
// steady stream of frames allocates nothing.
func writeFrame(w io.Writer, scratch []byte, f *frame) ([]byte, error) {
	if len(f.Str) > maxString || len(f.Data) > maxPayload {
		return scratch, errLength
	}
	b := append(scratch[:0], make([]byte, headerSize)...)
	b = append(b, f.Str...)
	h := b[:headerSize]
	h[0], h[1] = byte(f.Op), byte(f.Code)
	le.PutUint32(h[4:], uint32(len(f.Str)))
	le.PutUint32(h[8:], uint32(len(f.Data)))
	le.PutUint32(h[12:], crc32.Update(crc32.ChecksumIEEE(b[headerSize:]), crc32.IEEETable, f.Data))
	le.PutUint64(h[16:], f.Seq)
	le.PutUint64(h[24:], f.Gen)
	le.PutUint64(h[32:], uint64(f.Off))
	le.PutUint64(h[40:], uint64(f.Count))
	le.PutUint32(h[48:], f.MS)
	le.PutUint32(h[52:], crc32.ChecksumIEEE(h[:52]))
	if _, err := w.Write(b); err != nil || len(f.Data) == 0 {
		return b, err
	}
	_, err := w.Write(f.Data)
	return b, err
}

// readFrame decodes one frame into f, overwriting every field. reply
// names the direction being read: a server takes only request ops with
// a zero code, a client only replies. A stream that ends mid-frame is
// io.ErrUnexpectedEOF; a refused frame wraps ErrProto.
func readFrame(br *bufio.Reader, f *frame, reply bool) error {
	h, err := br.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if crc32.ChecksumIEEE(h[:52]) != le.Uint32(h[52:]) {
		return errHeaderSum
	}
	*f = frame{
		Op:    op(h[0]),
		Code:  code(h[1]),
		Seq:   le.Uint64(h[16:]),
		Gen:   le.Uint64(h[24:]),
		Off:   int64(le.Uint64(h[32:])),
		Count: int64(le.Uint64(h[40:])),
		MS:    le.Uint32(h[48:]),
	}
	slen, plen, sum := le.Uint32(h[4:]), le.Uint32(h[8:]), le.Uint32(h[12:])
	switch {
	case h[2] != 0 || h[3] != 0:
		return errReserved
	case f.Op >= numOps || (f.Op == opReply) != reply:
		return errOp
	case f.Code >= numCodes || (!reply && f.Code != codeOK):
		return errCode
	case slen > maxString || plen > maxPayload:
		return errLength
	}
	br.Discard(headerSize)
	// The string is copied out of the read buffer a buffer-load at a
	// time, so even a maximal one costs a single allocation.
	var crc uint32
	if slen > 0 {
		var sb strings.Builder
		sb.Grow(int(slen))
		for n := int(slen); n > 0; {
			b, err := br.Peek(min(n, br.Size()))
			if err != nil {
				return unexpected(err)
			}
			crc = crc32.Update(crc, crc32.IEEETable, b)
			sb.Write(b)
			br.Discard(len(b))
			n -= len(b)
		}
		f.Str = sb.String()
	}
	if plen > 0 {
		f.Data = make([]byte, plen)
		if _, err := io.ReadFull(br, f.Data); err != nil {
			return unexpected(err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, f.Data)
	}
	if crc != sum {
		return errPayloadSum
	}
	return nil
}

// unexpected reports a stream that ended after a frame's header.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Entry records. Readdir, stat and glob replies carry vfs.Info values
// in their payload, one record each: a fixed part, then the name.
//
//	off size field
//	  0    8 size
//	  8    8 modTime
//	 16    8 gen
//	 24    1 isDir, 0 or 1
//	 25    3 reserved, zero
//	 28    4 name length
//	 32    n name
//
// A glob reply's records carry names only.
const entrySize = 32

func appendEntry(dst []byte, e vfs.Info) []byte {
	var r [entrySize]byte
	le.PutUint64(r[0:], uint64(e.Size))
	le.PutUint64(r[8:], uint64(e.ModTime))
	le.PutUint64(r[16:], e.Gen)
	if e.IsDir {
		r[24] = 1
	}
	le.PutUint32(r[28:], uint32(len(e.Name)))
	return append(append(dst, r[:]...), e.Name...)
}

// parseEntries decodes a payload of entry records, refusing any record
// that would not re-encode to the same bytes.
func parseEntries(b []byte) ([]vfs.Info, error) {
	var out []vfs.Info
	for len(b) > 0 {
		if len(b) < entrySize || b[24] > 1 || b[25]|b[26]|b[27] != 0 {
			return nil, errEntry
		}
		n := uint64(le.Uint32(b[28:]))
		if n > uint64(len(b)-entrySize) {
			return nil, errEntry
		}
		out = append(out, vfs.Info{
			Name:    string(b[entrySize : entrySize+n]),
			IsDir:   b[24] == 1,
			Size:    int64(le.Uint64(b[0:])),
			ModTime: int64(le.Uint64(b[8:])),
			Gen:     le.Uint64(b[16:]),
		})
		b = b[entrySize+n:]
	}
	return out, nil
}

// statInfo decodes a stat reply, whose payload must be exactly one
// entry record.
func statInfo(resp *frame) (vfs.Info, error) {
	ents, err := parseEntries(resp.Data)
	if err != nil {
		return vfs.Info{}, err
	}
	if len(ents) != 1 {
		return vfs.Info{}, fmt.Errorf("%w: stat reply carries %d entries", ErrProto, len(ents))
	}
	return ents[0], nil
}
