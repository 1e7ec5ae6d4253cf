package journal

import (
	"testing"
)

// FuzzJournalDecode throws arbitrary bytes at every decoding surface a
// crash can expose: op payloads, whole segments (both mid-sequence and
// final), checkpoints, and the boundary scanner. The property under
// test is absolute: no input panics, and any op or checkpoint that
// decodes survives an encode/decode round trip unchanged (nothing is
// half-believed).
func FuzzJournalDecode(f *testing.F) {
	for _, op := range []Op{
		{Kind: OpSplice, Gen: 1, Win: 2, Sub: 1, P0: 3, P1: 4, Str1: "hello"},
		{Kind: OpSnarf, Gen: 9, Str1: "snarf", Str2: "aux"},
		{Kind: OpFile, Gen: 1 << 40, P0: 2, Str1: "/a/b"},
	} {
		f.Add(appendOpPayload(nil, &op))
		seg := appendSegmentHeader(nil, 0)
		f.Add(appendRecord(seg, &op))
		f.Add(encodeCheckpoint(op.Gen, []Op{op}))
	}
	// A record continued across two frames. A real one is longer than
	// MaxRecord, too big for a seed; this one's first frame is short,
	// which the reader refuses, but it leads the fuzzer into the
	// continued-frame path.
	split := Op{Kind: OpSplice, Gen: 2, Win: 1, Sub: 1, Str1: "continued"}
	f.Add(append(appendSegmentHeader(nil, 0), splitFrames(appendOpPayload(nil, &split), 5)...))
	// A checkpoint as a session writes one.
	f.Add(encodeCheckpoint(7, []Op{
		{Kind: OpSession, P0: 80, P1: 24, P2: 3},
		{Kind: OpColSplit, P0: 40},
		{Kind: OpFile, P0: 3, Str1: "/usr"},
		{Kind: OpFile, P0: 0, Str1: "/usr/f", Str2: "data\n"},
		{Kind: OpFile, P0: 4, P1: 0, Str1: "/usr", Str2: "/bin"},
		{Kind: OpNewWin, Win: 2},
		{Kind: OpSplice, Win: 2, Sub: 0, Str1: "/usr/f Close!"},
		{Kind: OpSplice, Win: 2, Sub: 1, Str1: "data\n"},
		{Kind: OpPlace, Win: 2, P0: 1, P1: 1},
		{Kind: OpScroll, Win: 2},
		{Kind: OpSelect, Win: 2, Sub: 0},
		{Kind: OpSelect, Win: 2, Sub: 1, P0: 1, P1: 3},
		{Kind: OpClean, Win: 2, Flag: true},
		{Kind: OpCurrent, Win: 2, Sub: 1},
		{Kind: OpSnarf, Str1: "at"},
		{Kind: OpErrors},
	}))
	f.Add([]byte(segMagic))
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, b []byte) {
		if op, err := decodeOpPayload(b); err == nil {
			// Varints may arrive non-minimally encoded, so compare ops,
			// not bytes.
			got, err := decodeOpPayload(appendOpPayload(nil, &op))
			if err != nil || got != op {
				t.Fatalf("round trip diverged: %+v -> %+v (%v)", op, got, err)
			}
		}
		decodeSegment("wal-00000000000000000000.log", b, true)
		decodeSegment("wal-00000000000000000000.log", b, false)
		if gen, ops, err := decodeCheckpoint(b); err == nil {
			gen2, ops2, err := decodeCheckpoint(encodeCheckpoint(gen, ops))
			if err != nil || gen2 != gen || len(ops2) != len(ops) {
				t.Fatalf("checkpoint round trip diverged: %d ops -> %d (%v)", len(ops), len(ops2), err)
			}
			for i := range ops {
				if ops2[i] != ops[i] {
					t.Fatalf("checkpoint op %d diverged: %+v -> %+v", i, ops[i], ops2[i])
				}
			}
		}
		for _, e := range RecordEnds(b) {
			if e < segHeaderLen || e > len(b) {
				t.Fatalf("RecordEnds offset %d out of range", e)
			}
		}

		// A fuzzed byte string must also survive the full store path:
		// treat b as a segment tail grafted onto a valid journal.
		fs := NewMemFS()
		w, err := Open(fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		w.Append(&Op{Kind: OpScroll, Win: 1})
		w.Flush()
		w.Close()
		seg, _ := fs.ReadFile(segmentName(0))
		fs.WriteFile(segmentName(0), append(seg, b...))
		Load(fs) // must not panic, any error is fine
	})
}
