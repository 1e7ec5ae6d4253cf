package journal

import (
	"encoding/binary"
	"fmt"
)

// State is what Load recovers: the newest checkpoint plus the ordered
// tail of ops to replay on top of it.
type State struct {
	// CkptGen is the checkpoint's generation; ops in Ops all have
	// strictly greater generations.
	CkptGen uint64
	// Checkpoint is the op list that rebuilds the session from an
	// empty one; nil when no checkpoint exists (then Ops is the whole
	// history — unused by help, which always checkpoints on attach, but
	// Load supports it).
	Checkpoint []Op
	// Ops is the replay tail, generations strictly increasing.
	Ops []Op
	// MaxGen is the highest generation seen (CkptGen if no ops).
	MaxGen uint64
	// Torn reports that the final record of the final segment was
	// incomplete and has been discarded — the expected signature of a
	// crash mid-append, not an error.
	Torn bool
	// TornReason says what was wrong with the discarded tail.
	TornReason string
}

// Load reads and validates the journal. Rules:
//
//   - The checkpoint file, if present, must decode exactly, records
//     and all; it is written atomically, so any damage is ErrCorrupt.
//     One in the retired HELPCKP1 snapshot format is refused as
//     unsupported, not corrupt.
//   - Only segments with base >= the checkpoint generation are
//     replayed; older ones are pre-compaction leftovers and ignored.
//   - Within the segment sequence, every record must frame and decode
//     exactly, except that the final segment may end mid-record: that
//     tail is reported via Torn and discarded, never replayed.
//   - Generations must be strictly increasing across the replayed
//     sequence and greater than the checkpoint's; a violation is
//     ErrCorrupt (it means records from different eras got mixed).
//
// Load never panics on any input.
func Load(fsys Fsys) (*State, error) {
	names, err := fsys.List()
	if err != nil {
		return nil, err
	}
	st := &State{}
	haveCkpt := false
	var segs []string
	for _, name := range names {
		if name == "checkpoint" {
			b, err := fsys.ReadFile(name)
			if err != nil {
				return nil, err
			}
			gen, ops, err := decodeCheckpoint(b)
			if err != nil {
				return nil, err
			}
			st.CkptGen = gen
			st.Checkpoint = ops
			st.MaxGen = gen
			haveCkpt = true
			continue
		}
		if _, ok := parseSegmentName(name); ok {
			segs = append(segs, name)
		}
	}
	if !haveCkpt && len(segs) == 0 {
		return nil, ErrNoState
	}
	// List is sorted and segment names are fixed-width decimal, so
	// lexical order is generation order.
	live := segs[:0]
	for _, name := range segs {
		base, _ := parseSegmentName(name)
		if base >= st.CkptGen {
			live = append(live, name)
		}
	}
	prevGen := st.CkptGen
	for i, name := range live {
		isLast := i == len(live)-1
		b, err := fsys.ReadFile(name)
		if err != nil {
			return nil, err
		}
		ops, torn, reason, err := decodeSegment(name, b, isLast)
		if err != nil {
			return nil, err
		}
		if torn {
			st.Torn = true
			st.TornReason = reason
		}
		for i := range ops {
			op := &ops[i]
			if op.Gen <= prevGen {
				return nil, fmt.Errorf("%w: %s: generation %d not after %d", ErrCorrupt, name, op.Gen, prevGen)
			}
			prevGen = op.Gen
			st.Ops = append(st.Ops, *op)
		}
	}
	if prevGen > st.MaxGen {
		st.MaxGen = prevGen
	}
	return st, nil
}

// decodeSegment walks one segment. A short or damaged tail is legal
// only when isLast (a crash can tear only the end of the journal);
// anywhere else it is ErrCorrupt.
func decodeSegment(name string, seg []byte, isLast bool) (ops []Op, torn bool, reason string, err error) {
	tear := func(what string) ([]Op, bool, string, error) {
		if isLast {
			return ops, true, what, nil
		}
		return nil, false, "", fmt.Errorf("%w: %s: %s in non-final segment", ErrCorrupt, name, what)
	}
	if len(seg) < segHeaderLen {
		return tear("truncated header")
	}
	if string(seg[:8]) != segMagic {
		return nil, false, "", fmt.Errorf("%w: %s: bad segment magic", ErrCorrupt, name)
	}
	base := binary.LittleEndian.Uint64(seg[8:16])
	if nameBase, _ := parseSegmentName(name); nameBase != base {
		return nil, false, "", fmt.Errorf("%w: %s: header generation %d does not match name", ErrCorrupt, name, base)
	}
	ops, tornAt, err := decodeRecords(seg, segHeaderLen)
	if err != nil {
		return nil, false, "", fmt.Errorf("%s: %w", name, err)
	}
	if tornAt != "" {
		return tear(tornAt)
	}
	return ops, false, "", nil
}

// decodeRecords decodes the records in b from off to its end: a
// segment's, or a checkpoint's. A torn record stops it; it returns the
// ops before it and why it is torn.
func decodeRecords(b []byte, off int) ([]Op, string, error) {
	var ops []Op
	for off < len(b) {
		payload, next, torn, bad := nextRecord(b, off)
		if torn != "" {
			return ops, torn, nil
		}
		if bad != "" {
			return nil, "", fmt.Errorf("%w: %s", ErrCorrupt, bad)
		}
		op, err := decodeOpPayload(payload)
		if err != nil {
			return nil, "", err
		}
		ops = append(ops, op)
		off = next
	}
	return ops, "", nil
}
