package srvnet

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// encode returns f's wire bytes.
func encode(t testing.TB, f *frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, nil, f); err != nil {
		t.Fatalf("writeFrame(%v): %v", f.Op, err)
	}
	return buf.Bytes()
}

// decode reads one frame from b in the given direction.
func decode(b []byte, reply bool) (frame, error) {
	var f frame
	err := readFrame(bufio.NewReader(bytes.NewReader(b)), &f, reply)
	return f, err
}

// TestFrameRoundTrip: every op and every code survives the wire with
// every field at an extreme, and with strings that are empty, non-ASCII,
// invalid UTF-8, or at the maximum length.
func TestFrameRoundTrip(t *testing.T) {
	strs := []string{"", "/utf8/héllo", "/bad\xff\xfeutf8", strings.Repeat("x", maxString)}
	var frames []frame
	for o := opReply + 1; o < numOps; o++ {
		for i, s := range strs {
			frames = append(frames, frame{Op: o, Seq: 1<<63 + uint64(i), Off: -1 - int64(i),
				Count: math.MinInt64, MS: math.MaxUint32, Gen: math.MaxUint64, Str: s, Data: []byte("data\x00\xff")})
		}
	}
	for c := codeOK; c < numCodes; c++ {
		for i, s := range strs {
			frames = append(frames, frame{Op: opReply, Code: c, Seq: math.MaxUint64 - uint64(i),
				Gen: 1 << 63, Off: math.MinInt64, Count: -1, MS: 1, Str: s})
		}
	}
	for _, want := range frames {
		b := encode(t, &want)
		if len(b) != headerSize+len(want.Str)+len(want.Data) {
			t.Fatalf("%v/%d: %d bytes on the wire", want.Op, want.Code, len(b))
		}
		got, err := decode(b, want.Op == opReply)
		if err != nil {
			t.Fatalf("%v/%d: %v", want.Op, want.Code, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v/%d: round trip changed the frame:\ngot  %+v\nwant %+v", want.Op, want.Code, got, want)
		}
	}
	// A string over its limit never leaves the encoder.
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, nil, &frame{Op: opRead, Str: strings.Repeat("x", maxString+1)}); err != errLength || buf.Len() != 0 {
		t.Errorf("oversized string: err = %v after %d bytes, want errLength before any", err, buf.Len())
	}
}

// roundTripStream writes frames back to back into one stream, reusing
// one scratch buffer as a connection does, then reads them back in
// order in the given direction, and checks the stream is then empty.
func roundTripStream(t *testing.T, frames []frame, reply bool) []frame {
	t.Helper()
	var buf bytes.Buffer
	var scratch []byte
	for i := range frames {
		var err error
		if scratch, err = writeFrame(&buf, scratch, &frames[i]); err != nil {
			t.Fatalf("writeFrame(%+v): %v", frames[i], err)
		}
	}
	br := bufio.NewReader(&buf)
	got := make([]frame, len(frames))
	for i := range got {
		if err := readFrame(br, &got[i], reply); err != nil {
			t.Fatalf("frame %d (%v): %v", i, frames[i].Op, err)
		}
		if !reflect.DeepEqual(got[i], frames[i]) {
			t.Fatalf("frame %d changed on the wire:\ngot  %+v\nwant %+v", i, got[i], frames[i])
		}
	}
	var f frame
	if err := readFrame(br, &f, reply); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	return got
}

// TestCodecRequestRoundTrip: the requests a client sends, written back
// to back on one stream, come out of the server's decoder unchanged and
// in order — and none of them is taken for a reply.
func TestCodecRequestRoundTrip(t *testing.T) {
	reqs := []frame{
		{Op: opRead, Seq: 1, Str: "/a/b"},
		{Op: opReadAt, Seq: 1<<63 + 7, Str: "/big", Off: 4096, Count: 65536},
		{Op: opWrite, Seq: 2, Str: "/w", Data: []byte("new body\n")},
		{Op: opAppend, Seq: 3, Str: "/w", Data: []byte("more")},
		{Op: opGlob, Seq: 4, Str: "/d/*"},
		{Op: opAttach, Seq: 5, Str: "sess-1"},
		{Op: opStat, Seq: 6},
		{Op: opRead, Seq: 7, Str: `/quote"and\slash`},
		{Op: opRead, Seq: 8, Str: "/utf8/héllo"},
		{Op: opReadAt, Seq: 9, Str: "/x", Off: -1},
		{Op: opReadWait, Seq: 10, Str: "/mnt/help/log", Off: 42, MS: 30000},
		{Op: opReadDir, Seq: 11, Str: "/"},
		{Op: opMkdir, Seq: 12, Str: "/d"},
		{Op: opRemove, Seq: 13, Str: "/d"},
	}
	roundTripStream(t, reqs, false)
	for _, r := range reqs {
		if _, err := decode(encode(t, &r), true); err != errOp {
			t.Fatalf("%v request read as a reply: err = %v, want %v", r.Op, err, errOp)
		}
	}
}

// TestCodecResponseRoundTrip: the replies a server sends — data,
// errors, the Seq-0 busy refusal, and the readdir, stat and glob
// replies whose entries ride in the payload — come out of the client's
// decoder unchanged and in order, entries included; none is taken for
// a request.
func TestCodecResponseRoundTrip(t *testing.T) {
	dir := []vfs.Info{{Name: "f", Size: 3, ModTime: 9, Gen: 2}, {Name: "sub", IsDir: true}}
	names := []vfs.Info{{Name: "/a"}, {Name: "/b"}}
	stat := vfs.Info{Name: "x", IsDir: true, Gen: 5}
	entries := func(es ...vfs.Info) []byte {
		var b []byte
		for _, e := range es {
			b = appendEntry(b, e)
		}
		return b
	}
	resps := []frame{
		{Op: opReply, Seq: 1},
		{Op: opReply, Seq: 2, Gen: 41, Data: []byte("contents\n")},
		{Op: opReply, Seq: 3, Code: codeNotExist, Str: "srvnet: no such file"},
		{Op: opReply, Seq: 4, Data: entries(names...)},
		{Op: opReply, Seq: 5, Data: entries(dir...)},
		{Op: opReply, Seq: 6, Gen: 5, Data: entries(stat)},
		{Op: opReply, Seq: 7, Gen: 43, Data: []byte("log line\n")},
		{Op: opReply, Code: codeBusy, Str: "srvnet: server busy", MS: 250},
	}
	got := roundTripStream(t, resps, true)
	for i, want := range map[int][]vfs.Info{3: names, 4: dir} {
		if es, err := parseEntries(got[i].Data); err != nil || !reflect.DeepEqual(es, want) {
			t.Fatalf("reply %d entries = %+v, %v; want %+v", i, es, err, want)
		}
	}
	if info, err := statInfo(&got[5]); err != nil || info != stat {
		t.Fatalf("stat reply = %+v, %v; want %+v", info, err, stat)
	}
	for _, r := range resps {
		if _, err := decode(encode(t, &r), false); err != errOp {
			t.Fatalf("reply %d read as a request: err = %v, want %v", r.Seq, err, errOp)
		}
	}
}

// reheader recomputes the header CRC after a test edits header bytes.
func reheader(b []byte) []byte {
	le.PutUint32(b[52:], crc32.ChecksumIEEE(b[:52]))
	return b
}

// TestFrameRejections: each way a frame can be malformed gets a proto
// reply naming the problem, and then the connection closes.
func TestFrameRejections(t *testing.T) {
	valid := func() []byte { return encode(t, &frame{Op: opWrite, Seq: 1, Str: "/f", Data: []byte("payload")}) }
	cases := []struct {
		name, why string
		frame     []byte
	}{
		{"unknown op", "unknown op", func() []byte { b := valid(); b[0] = byte(numOps); return reheader(b) }()},
		{"reply op", "unknown op", func() []byte { b := valid(); b[0] = byte(opReply); return reheader(b) }()},
		{"unknown code", "unknown code", func() []byte { b := valid(); b[1] = byte(numCodes); return reheader(b) }()},
		{"code on a request", "unknown code", func() []byte { b := valid(); b[1] = byte(codeBusy); return reheader(b) }()},
		{"reserved byte", "reserved", func() []byte { b := valid(); b[3] = 1; return reheader(b) }()},
		{"header crc", "header checksum", func() []byte { b := valid(); b[16] ^= 1; return b }()},
		{"payload crc", "payload checksum", func() []byte { b := valid(); b[len(b)-1] ^= 1; return b }()},
		{"string crc", "payload checksum", func() []byte { b := valid(); b[headerSize] ^= 1; return b }()},
		{"string length", "over its limit", func() []byte { b := valid(); le.PutUint32(b[4:], maxString+1); return reheader(b) }()},
		{"payload length", "over its limit", func() []byte { b := valid(); le.PutUint32(b[8:], maxPayload+1); return reheader(b) }()},
	}
	fs := vfs.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(fs).Serve(l)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			br := bufio.NewReader(conn)
			var resp frame
			if err := readFrame(br, &resp, true); err != nil {
				t.Fatalf("no protocol-error reply: %v", err)
			}
			if resp.Seq != 0 || resp.Code != codeProto || !strings.Contains(resp.Str, tc.why) {
				t.Fatalf("reply = %+v, want a Seq-0 proto reply naming %q", resp, tc.why)
			}
			if _, err := br.ReadByte(); err == nil {
				t.Fatal("connection stayed open after the proto reply")
			}
			if _, err := fs.Stat("/f"); err == nil {
				t.Fatal("the malformed write was applied")
			}
		})
	}
}

// TestFrameLengthRefusedBeforeAlloc: a header whose length fields were
// corrupted — caught by the header CRC — or that claims more than the
// limits allow is refused without allocating anything.
func TestFrameLengthRefusedBeforeAlloc(t *testing.T) {
	corrupt := encode(t, &frame{Op: opRead, Seq: 1, Str: "/f"})
	le.PutUint32(corrupt[8:], 1<<31)
	huge := reheader(append([]byte(nil), corrupt...))
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	for _, tc := range []struct {
		b    []byte
		want error
	}{{corrupt, errHeaderSum}, {huge, errLength}} {
		var f frame
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(tc.b)
			br.Reset(&rd)
			err = readFrame(br, &f, false)
		})
		if err != tc.want {
			t.Fatalf("err = %v, want %v", err, tc.want)
		}
		if allocs != 0 {
			t.Fatalf("refusing %v allocated %v times", tc.want, allocs)
		}
	}
}

// TestEntryRecords: readdir, stat and glob payloads share one record
// format, and a payload that is not whole records is refused.
func TestEntryRecords(t *testing.T) {
	want := []vfs.Info{
		{Name: "f", Size: math.MaxInt64, ModTime: -1, Gen: math.MaxUint64},
		{Name: "dir/é\xff", IsDir: true},
		{},
	}
	var b []byte
	for _, e := range want {
		b = appendEntry(b, e)
	}
	got, err := parseEntries(b)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseEntries = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range [][]byte{
		b[:len(b)-1],    // truncated record
		b[:entrySize-1], // short fixed part
		func() []byte { c := append([]byte(nil), b...); c[24] = 2; return c }(),  // isDir not a bool
		func() []byte { c := append([]byte(nil), b...); c[25] = 1; return c }(),  // reserved byte
		func() []byte { c := append([]byte(nil), b...); c[28] = 99; return c }(), // name past the end
	} {
		if _, err := parseEntries(bad); !errors.Is(err, ErrProto) {
			t.Errorf("parseEntries(%q) err = %v, want ErrProto", bad, err)
		}
	}
}

// fakePeer answers the client's first request with reply(req) over a
// pipe, the way a broken server would.
func fakePeer(t *testing.T, reply func(req frame) frame) *Client {
	t.Helper()
	cside, sside := net.Pipe()
	go func() {
		var req frame
		if readFrame(bufio.NewReader(sside), &req, false) == nil {
			resp := reply(req)
			writeFrame(sside, nil, &resp)
		}
	}()
	c := NewClient(cside)
	c.Timeout = 2 * time.Second
	t.Cleanup(func() { c.Close(); sside.Close() })
	return c
}

// TestStatReplyWithoutInfo: a successful stat reply whose payload is not
// exactly one entry record is a protocol error, for Client.Stat and for
// a batched Future alike — not a panic, not a zero Info.
func TestStatReplyWithoutInfo(t *testing.T) {
	two := appendEntry(appendEntry(nil, vfs.Info{Name: "a"}), vfs.Info{Name: "b"})
	for _, payload := range [][]byte{nil, two, []byte("junk")} {
		c := fakePeer(t, func(req frame) frame { return frame{Seq: req.Seq, Data: payload} })
		if info, err := c.Stat("/x"); !errors.Is(err, ErrProto) {
			t.Errorf("Stat with payload %q = %+v, %v; want ErrProto", payload, info, err)
		}
		c = fakePeer(t, func(req frame) frame { return frame{Seq: req.Seq, Data: payload} })
		if info, err := c.NewBatch().Stat("/x").Info(); !errors.Is(err, ErrProto) {
			t.Errorf("Future.Info with payload %q = %+v, %v; want ErrProto", payload, info, err)
		}
	}
}

// FuzzFrame feeds arbitrary bytes to the frame decoder, in both
// directions, and to the entry-record decoder: neither may panic, and
// whatever decodes must re-encode to exactly the bytes it came from.
func FuzzFrame(f *testing.F) {
	f.Add(encode(f, &frame{Op: opRead, Seq: 1, Str: "/mnt/help/1/body"}))
	f.Add(encode(f, &frame{Op: opReadWait, Seq: 2, Str: "/mnt/help/log", Off: 7, MS: 30000}))
	f.Add(encode(f, &frame{Op: opReply, Seq: 1, Gen: 9, Data: []byte("hello\n")}))
	f.Add(encode(f, &frame{Op: opReply, Code: codeBusy, Str: "srvnet: server busy", MS: 250}))
	f.Add(appendEntry(appendEntry(nil, vfs.Info{Name: "body", Size: 5, Gen: 3}), vfs.Info{Name: "d", IsDir: true}))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, reply := range []bool{false, true} {
			fr, err := decode(b, reply)
			if err != nil {
				continue
			}
			again := encode(t, &fr)
			if len(again) > len(b) || !bytes.Equal(again, b[:len(again)]) {
				t.Fatalf("decoded %+v re-encodes differently:\nin  %x\nout %x", fr, b, again)
			}
		}
		if ents, err := parseEntries(b); err == nil {
			var again []byte
			for _, e := range ents {
				again = appendEntry(again, e)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("entries %+v re-encode differently:\nin  %x\nout %x", ents, b, again)
			}
		}
	})
}
