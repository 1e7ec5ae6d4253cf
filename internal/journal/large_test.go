//go:build !race

// The race detector shadows every byte these tests copy, several times
// over; at 64 MiB a record that comes to gigabytes, so they run in the
// plain pass only.

package journal

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// A record longer than MaxRecord is written as continued frames and
// loads back whole, from a segment and from a checkpoint; a cut inside
// its second frame is a torn tail, a flipped bit in its first frame is
// corruption.
func TestRecordLongerThanMaxRecord(t *testing.T) {
	line := "0123456789 abcdefghij klmnopqrst uvwxyz\n"
	big := Op{Kind: OpSplice, Win: 1, Sub: 1, Str1: strings.Repeat(line, MaxRecord/len(line)+1000)}
	ops := []Op{{Kind: OpNewWin, Win: 1}, big, {Kind: OpSnarf, Str1: "after"}}
	fs := NewMemFS()
	w := writeOps(t, fs, ops)
	defer w.Close()

	st, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Ops) != 3 || st.Ops[1].Str1 != big.Str1 || st.Ops[2].Str1 != "after" {
		t.Fatalf("loaded %d ops (torn %v)", len(st.Ops), st.Torn)
	}

	seg, err := fs.ReadFile(segmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	ends := RecordEnds(seg)
	if len(ends) != 4 {
		t.Fatalf("RecordEnds found %d boundaries, want 4", len(ends))
	}
	first := ends[1] // the big record's first frame header
	if word := binary.LittleEndian.Uint32(seg[first:]); word&frameMore == 0 || word&^frameMore != MaxRecord {
		t.Fatalf("first frame length word %#x, want MaxRecord with frameMore", word)
	}
	// Opening a writer scans every segment for its highest generation,
	// which it reads in place: it allocates the segment it reads, and
	// neither joins the big record's frames nor copies its text.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	maxGen, err := scanMaxGen(fs)
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; err != nil || maxGen != 3 || alloc > uint64(len(seg))+1<<20 {
		t.Fatalf("scanMaxGen = %d, %v, allocating %d bytes for a %d-byte segment", maxGen, err, alloc, len(seg))
	}
	second := first + recHeaderLen + MaxRecord
	for _, n := range []int{second, second + 3, second + recHeaderLen + 10, ends[2] - 1} {
		cut := NewMemFS()
		cut.WriteFile(segmentName(0), seg[:n])
		st, err := Load(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if !st.Torn || len(st.Ops) != 1 {
			t.Fatalf("cut at %d: %d ops, torn %v", n, len(st.Ops), st.Torn)
		}
	}
	bad := append([]byte(nil), seg...)
	bad[first+recHeaderLen+100] ^= 0xff
	flipped := NewMemFS()
	flipped.WriteFile(segmentName(0), bad)
	if _, err := Load(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit in the first frame: got %v, want ErrCorrupt", err)
	}

	w.Checkpoint([]Op{{Kind: OpSession, P0: 80, P1: 24, P2: 2}, big})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err = Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Checkpoint) != 2 || st.Checkpoint[1].Str1 != big.Str1 || len(st.Ops) != 0 {
		t.Fatalf("checkpoint holds %d ops, tail %d", len(st.Checkpoint), len(st.Ops))
	}
}
