package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

func sampleOps() []Op {
	return []Op{
		{Kind: OpSplice, Win: 3, Sub: 1, P0: 10, P1: 4, Str1: "héllo\nwörld"},
		{Kind: OpClean, Win: 3, Flag: true},
		{Kind: OpSelect, Win: 2, Sub: 0, P0: 0, P1: 99},
		{Kind: OpCurrent, Win: 7, Sub: 1},
		{Kind: OpSnarf, Str1: strings.Repeat("snarf ", 100)},
		{Kind: OpNewWin, Win: 9, Flag: true},
		{Kind: OpCloseWin, Win: 9},
		{Kind: OpPlace, Win: 3, P0: 1, P1: 12, P2: 3},
		{Kind: OpScroll, Win: 3, P0: 42},
		{Kind: OpColSplit, P0: 60},
		{Kind: OpFile, P0: 1, P1: 0, Str1: "/usr/rob/file", Str2: "contents\x00with\xffbytes"},
	}
}

func TestOpRoundTrip(t *testing.T) {
	for i, op := range sampleOps() {
		op.Gen = uint64(i + 1)
		payload := appendOpPayload(nil, &op)
		got, err := decodeOpPayload(payload)
		if err != nil {
			t.Fatalf("op %d: decode: %v", i, err)
		}
		if got != op {
			t.Fatalf("op %d: round trip\n got %+v\nwant %+v", i, got, op)
		}
	}
}

// EncodeOp sizes its buffer once: the payload is encoded in place
// behind the frame header.
func TestEncodeOpOneAllocation(t *testing.T) {
	op := Op{Kind: OpSplice, Gen: 1 << 40, Win: 3, Sub: 1, P0: 1 << 30, P1: -7, Str1: strings.Repeat("x", 1000), Str2: "aux"}
	var rec []byte
	if n := testing.AllocsPerRun(20, func() { rec = EncodeOp(&op) }); n != 1 {
		t.Fatalf("EncodeOp made %v allocations, want 1", n)
	}
	payload, next, torn, bad := nextRecord(rec, 0)
	if torn != "" || bad != "" || next != len(rec) {
		t.Fatalf("framing: next %d of %d, torn %q, bad %q", next, len(rec), torn, bad)
	}
	if got, err := decodeOpPayload(payload); err != nil || got != op {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

// splitFrames frames payload as one record of two frames, the first
// holding payload[:at] and flagged frameMore. The writer continues a
// record only past a full MaxRecord frame, so for any other at the
// reader must refuse the result.
func splitFrames(payload []byte, at int) []byte {
	var out []byte
	for i, part := range [][]byte{payload[:at], payload[at:]} {
		var hdr [recHeaderLen]byte
		word := uint32(len(part))
		if i == 0 {
			word |= frameMore
		}
		binary.LittleEndian.PutUint32(hdr[0:4], word)
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(part, crcTable))
		out = append(append(out, hdr[:]...), part...)
	}
	return out
}

// The checksum does not cover frameMore, so the frame length is what
// tells a flipped bit from a continued record: a continued frame
// shorter than MaxRecord is corruption, even as the final record of the
// final segment, never a torn tail to discard.
func TestContinuedFrameShortIsCorrupt(t *testing.T) {
	ops := []Op{
		{Kind: OpSnarf, Gen: 1, Str1: "before"},
		{Kind: OpSplice, Gen: 2, Win: 1, Sub: 1, Str1: "the final record"},
	}
	seg := appendRecord(appendSegmentHeader(nil, 0), &ops[0])
	last := len(seg)
	flipped := appendRecord(seg[:last:last], &ops[1])
	flipped[last+3] ^= 0x80 // bit 31 of the final record's length word
	split := append(seg[:last:last], splitFrames(appendOpPayload(nil, &ops[1]), 9)...)
	for name, b := range map[string][]byte{"frameMore flipped on": flipped, "short continued frame": split} {
		fs := NewMemFS()
		fs.WriteFile(segmentName(0), b)
		if st, err := Load(fs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load = %+v, %v; want ErrCorrupt", name, st, err)
		}
		if ends := RecordEnds(b); len(ends) != 2 || ends[1] != last {
			t.Errorf("%s: RecordEnds = %v, want [%d %d]", name, ends, segHeaderLen, last)
		}
	}
}

// Negative ints must survive (window coords can go negative transiently).
func TestOpRoundTripNegative(t *testing.T) {
	op := Op{Kind: OpPlace, Gen: 5, Win: 1, P0: -1, P1: -200, P2: -3}
	got, err := decodeOpPayload(appendOpPayload(nil, &op))
	if err != nil {
		t.Fatal(err)
	}
	if got != op {
		t.Fatalf("got %+v want %+v", got, op)
	}
}

// Every truncation of a valid payload must fail cleanly, never panic.
func TestDecodeOpPayloadTruncated(t *testing.T) {
	op := Op{Kind: OpSplice, Gen: 77, Win: 1, Sub: 1, P0: 5, P1: 2, Str1: "abc", Str2: "xy"}
	payload := appendOpPayload(nil, &op)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeOpPayload(payload[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", n, len(payload))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestDecodeOpPayloadMalformed(t *testing.T) {
	op := Op{Kind: OpSnarf, Gen: 1, Str1: "hello"}
	good := appendOpPayload(nil, &op)

	bad := append([]byte(nil), good...)
	bad[0] = 200 // unknown kind
	if _, err := decodeOpPayload(bad); err == nil {
		t.Fatal("unknown kind decoded cleanly")
	}

	trailing := append(append([]byte(nil), good...), 0xff)
	if _, err := decodeOpPayload(trailing); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}

	// A string length pointing past the buffer.
	op2 := Op{Kind: OpSnarf, Gen: 1}
	short := appendOpPayload(nil, &op2)
	short[len(short)-2] = 0x7f // str1 length = 127, but no bytes follow
	if _, err := decodeOpPayload(short); err == nil {
		t.Fatal("oversized string length decoded cleanly")
	}
}

func writeOps(t *testing.T, fs Fsys, ops []Op) *Writer {
	t.Helper()
	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		w.Append(&ops[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWriterReaderRoundTrip(t *testing.T) {
	fs := NewMemFS()
	ops := sampleOps()
	w := writeOps(t, fs, ops)
	defer w.Close()

	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Fatalf("unexpected torn tail: %s", st.TornReason)
	}
	if len(st.Ops) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(st.Ops), len(ops))
	}
	for i, got := range st.Ops {
		if got.Gen != uint64(i+1) {
			t.Fatalf("op %d: gen %d, want %d", i, got.Gen, i+1)
		}
		want := ops[i]
		want.Gen = got.Gen
		if got != want {
			t.Fatalf("op %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if st.MaxGen != uint64(len(ops)) {
		t.Fatalf("MaxGen %d, want %d", st.MaxGen, len(ops))
	}
}

func TestLoadEmpty(t *testing.T) {
	if _, err := Load(NewMemFS()); !errors.Is(err, ErrNoState) {
		t.Fatalf("got %v, want ErrNoState", err)
	}
}

// A crash can tear the journal at any byte. Every truncation of the
// final segment must load as a clean prefix (possibly with Torn set) —
// never a panic, never an error, never a resurrected torn record.
func TestTornTailEveryByte(t *testing.T) {
	fs := NewMemFS()
	ops := sampleOps()
	w := writeOps(t, fs, ops)
	w.Close()

	seg, err := fs.ReadFile(segmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	ends := RecordEnds(seg)
	if len(ends) != len(ops)+1 {
		t.Fatalf("RecordEnds found %d boundaries, want %d", len(ends), len(ops)+1)
	}
	isEnd := make(map[int]bool, len(ends))
	for _, e := range ends {
		isEnd[e] = true
	}
	for n := 0; n <= len(seg); n++ {
		cut := fs.Clone()
		cut.WriteFile(segmentName(0), seg[:n])
		st, err := Load(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		// Ops = number of whole records that fit below the cut.
		want := 0
		for _, e := range ends {
			if e <= n && e > segHeaderLen {
				want++
			}
		}
		if len(st.Ops) != want {
			t.Fatalf("cut at %d: got %d ops, want %d", n, len(st.Ops), want)
		}
		// Torn exactly when the cut lands mid-header or mid-record.
		if wantTorn := !isEnd[n]; st.Torn != wantTorn {
			t.Fatalf("cut at %d: Torn=%v, want %v", n, st.Torn, wantTorn)
		}
	}
}

func TestCorruptMidFile(t *testing.T) {
	fs := NewMemFS()
	ops := sampleOps()
	w := writeOps(t, fs, ops)
	w.Close()

	seg, _ := fs.ReadFile(segmentName(0))
	ends := RecordEnds(seg)

	// Flip a byte inside the FIRST record's payload: CRC fails mid-file.
	bad := append([]byte(nil), seg...)
	bad[ends[0]+recHeaderLen] ^= 0xff
	fs.WriteFile(segmentName(0), bad)
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file bit flip: got %v, want ErrCorrupt", err)
	}

	// An absurd record length is corruption, not a tear.
	bad = append([]byte(nil), seg...)
	bad[ends[0]+3] = 0xff // length |= 0xff000000 > MaxRecord
	fs.WriteFile(segmentName(0), bad)
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: got %v, want ErrCorrupt", err)
	}

	// Bad segment magic.
	bad = append([]byte(nil), seg...)
	bad[0] = 'X'
	fs.WriteFile(segmentName(0), bad)
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// A CRC mismatch on the final record of the final segment is treated as
// a torn in-place write and discarded.
func TestTornFinalChecksum(t *testing.T) {
	fs := NewMemFS()
	ops := sampleOps()
	w := writeOps(t, fs, ops)
	w.Close()

	seg, _ := fs.ReadFile(segmentName(0))
	bad := append([]byte(nil), seg...)
	bad[len(bad)-1] ^= 0xff
	fs.WriteFile(segmentName(0), bad)
	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("final-record checksum mismatch not reported as torn")
	}
	if len(st.Ops) != len(ops)-1 {
		t.Fatalf("got %d ops, want %d", len(st.Ops), len(ops)-1)
	}
}

func TestCheckpointCompaction(t *testing.T) {
	fs := NewMemFS()
	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 5; i++ {
		w.Append(&Op{Kind: OpScroll, Win: 1, P0: i})
	}
	w.Checkpoint([]Op{{Kind: OpSnarf, Str1: "snapshot-at-5"}})
	w.Append(&Op{Kind: OpScroll, Win: 1, P0: 99})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	names, _ := fs.List()
	var segs []string
	for _, n := range names {
		if _, ok := parseSegmentName(n); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) != 1 || segs[0] != segmentName(5) {
		t.Fatalf("after checkpoint: segments %v, want [%s]", segs, segmentName(5))
	}

	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptGen != 5 || len(st.Checkpoint) != 1 || st.Checkpoint[0].Str1 != "snapshot-at-5" {
		t.Fatalf("checkpoint gen %d ops %+v", st.CkptGen, st.Checkpoint)
	}
	if len(st.Ops) != 1 || st.Ops[0].P0 != 99 || st.Ops[0].Gen != 6 {
		t.Fatalf("replay tail %+v", st.Ops)
	}
}

// Stale segments from before the checkpoint (simulating a crash between
// rename and compaction) must be ignored by Load.
func TestLoadIgnoresPreCheckpointSegments(t *testing.T) {
	fs := NewMemFS()
	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Append(&Op{Kind: OpScroll, Win: 1, P0: i})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stale, _ := fs.ReadFile(segmentName(0))
	w.Checkpoint([]Op{{Kind: OpSnarf, Str1: "ckpt"}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Resurrect the stale pre-checkpoint segment.
	fs.WriteFile(segmentName(0), stale)
	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ops) != 0 {
		t.Fatalf("stale segment replayed: %+v", st.Ops)
	}
}

func TestGenerationContinuesAcrossReopen(t *testing.T) {
	fs := NewMemFS()
	w := writeOps(t, fs, sampleOps())
	w.Close()

	w2, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	g := w2.Append(&Op{Kind: OpScroll, Win: 1})
	if g != uint64(len(sampleOps())+1) {
		t.Fatalf("reopened gen %d, want %d", g, len(sampleOps())+1)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, err := Load(fs); err != nil {
		t.Fatal(err)
	} else if st.MaxGen != g {
		t.Fatalf("MaxGen %d, want %d", st.MaxGen, g)
	}
}

// Reopening after a torn tail must also keep generations monotonic: the
// torn record's generation is gone, but scanning is lenient.
func TestReopenAfterTornTail(t *testing.T) {
	fs := NewMemFS()
	w := writeOps(t, fs, sampleOps())
	w.Close()
	seg, _ := fs.ReadFile(segmentName(0))
	fs.WriteFile(segmentName(0), seg[:len(seg)-3])

	w2, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if g := w2.Append(&Op{Kind: OpScroll, Win: 1}); g < uint64(len(sampleOps())) {
		t.Fatalf("gen %d reused after torn tail", g)
	}
}

func TestPolicies(t *testing.T) {
	for _, pol := range []Policy{SyncBatch, SyncAlways, SyncNever} {
		fs := NewMemFS()
		w, err := Open(fs, Config{Fsync: pol})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			w.Append(&Op{Kind: OpScroll, Win: 1, P0: i})
		}
		if err := w.Close(); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		st, err := Load(fs)
		if err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		if len(st.Ops) != 10 {
			t.Fatalf("policy %d: %d ops", pol, len(st.Ops))
		}
	}
}

// A sustained burst that overruns the queue must only apply
// backpressure, never deadlock. This is a regression test: Append
// blocks on a full queue while holding the gen-ordering mutex, so the
// drain goroutine must never need that mutex to free queue slots.
func TestAppendBackpressureNoDeadlock(t *testing.T) {
	fs := NewMemFS()
	w, err := Open(fs, Config{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			w.Append(&Op{Kind: OpSplice, Win: 1, Sub: 1, P0: i, Str1: "burst line\n"})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appends deadlocked against the drain goroutine")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ops) != n {
		t.Fatalf("%d ops survived the burst, want %d", len(st.Ops), n)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"batch": SyncBatch, "always": SyncAlways, "never": SyncNever, "": SyncBatch} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// failFS passes everything through until armed, then fails all writes.
type failFS struct {
	*MemFS
	fail bool
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFS) Create(name string) (File, error) {
	inner, err := f.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return failFile{File: inner, fs: f}, nil
}

func (f failFile) Write(p []byte) (int, error) {
	if f.fs.fail {
		return 0, fmt.Errorf("disk on fire")
	}
	return f.File.Write(p)
}

func TestWriterDegraded(t *testing.T) {
	fs := &failFS{MemFS: NewMemFS()}
	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	reported := make(chan error, 1)
	w.OnError = func(err error) { reported <- err }

	w.Append(&Op{Kind: OpScroll, Win: 1})
	if err := w.Flush(); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}

	fs.fail = true
	w.Append(&Op{Kind: OpScroll, Win: 1})
	if err := w.Flush(); err == nil {
		t.Fatal("degraded flush returned nil")
	}
	if err := <-reported; err == nil {
		t.Fatal("OnError got nil")
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
	// Still alive: appends drain without blocking or panicking.
	for i := 0; i < 100; i++ {
		w.Append(&Op{Kind: OpScroll, Win: 1, P0: i})
	}
	w.Flush()
}

func TestWriteCrashReport(t *testing.T) {
	fs := NewMemFS()
	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	name, err := w.WriteCrashReport([]byte("panic: boom"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "crash-001.txt" {
		t.Fatalf("first report named %q", name)
	}
	if b, err := fs.ReadFile(name); err != nil || string(b) != "panic: boom" {
		t.Fatalf("report contents %q, %v", b, err)
	}
	if name2, _ := w.WriteCrashReport(nil); name2 != "crash-002.txt" {
		t.Fatalf("second report named %q", name2)
	}
}

func TestAppendAfterClose(t *testing.T) {
	fs := NewMemFS()
	w, _ := Open(fs, Config{})
	w.Close()
	if g := w.Append(&Op{Kind: OpScroll}); g != 0 {
		t.Fatalf("append after close returned gen %d", g)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCheckpointCorruptIsError(t *testing.T) {
	fs := NewMemFS()
	w, _ := Open(fs, Config{})
	w.Append(&Op{Kind: OpScroll, Win: 1})
	w.Checkpoint([]Op{{Kind: OpSnarf, Str1: "payload"}})
	w.Flush()
	w.Close()

	b, _ := fs.ReadFile("checkpoint")
	b[len(b)-1] ^= 0xff
	fs.WriteFile("checkpoint", b)
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: got %v, want ErrCorrupt", err)
	}
}

// A checkpoint in the retired HELPCKP1 snapshot format is reported as
// unsupported, not as damage, and a writer opened over it still works:
// its first checkpoint replaces the old one.
func TestOldCheckpointIsUnsupported(t *testing.T) {
	payload := []byte("HELPSNAP\x01 snapshot bytes")
	old := make([]byte, ckptHeaderLen, ckptHeaderLen+len(payload))
	copy(old, "HELPCKP1")
	binary.LittleEndian.PutUint64(old[8:16], 5)
	binary.LittleEndian.PutUint32(old[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(old[20:24], crc32.Checksum(payload, crcTable))
	old = append(old, payload...)
	fs := NewMemFS()
	fs.WriteFile("checkpoint", old)
	_, err := Load(fs)
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "retired HELPCKP1 snapshot format") {
		t.Fatalf("old checkpoint: got %v, want an unsupported-format error, not ErrCorrupt", err)
	}

	w, err := Open(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w.Checkpoint([]Op{{Kind: OpSession, P0: 80, P1: 24, P2: 1}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(fs)
	if err != nil || len(st.Checkpoint) != 1 || st.Checkpoint[0].Kind != OpSession {
		t.Fatalf("after a new checkpoint: %+v, %v", st, err)
	}
}
