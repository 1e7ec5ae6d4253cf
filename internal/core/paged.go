package core

import (
	"fmt"
	"io"

	"repro/internal/vfs"
)

// DefaultMaxResident is the body size above which openFile switches from
// materializing the file into a gap buffer to the paged piece table, and
// simultaneously the resident-byte cap of each paged buffer. 8 MiB keeps
// every pre-existing workload (sources, man pages, listings) on the
// exact old path while a gigabyte log costs a bounded working set.
const DefaultMaxResident = 8 << 20

// pagedEligible reports whether a body with this stat should open paged:
// the feature is on, the file is regular (devices stat with Size 0 and
// must keep their snapshot semantics), it carries a generation to pin,
// and it is bigger than the resident budget — below that, paging is pure
// overhead.
func (h *Help) pagedEligible(info vfs.Info) bool {
	return h.maxResident > 0 && !info.IsDir && info.Gen != 0 && info.Size > h.maxResident
}

// fsSource adapts the namespace to text.Source for one file pinned at
// the generation observed at open. Faults run under the actor lock (the
// buffer is only touched on the event loop), so reads go through the raw
// FS view — the serialized view would deadlock.
//
// If the file is replaced while pages are still unresident, rereads
// would see the new bytes under the old index; the generation check
// turns that into a read error instead, which the text layer degrades
// to placeholder pages. Get then reloads cleanly. The condition is
// counted and announced on the event bus, but deliberately not written
// to the Errors window: faults fire mid-render, when mutating windows
// is off limits.
type fsSource struct {
	h     *Help
	name  string
	gen   uint64
	size  int64
	moved bool
}

func (s *fsSource) Size() int64 { return s.size }

func (s *fsSource) ReadAt(p []byte, off int64) (int, error) {
	n, gen, err := s.h.FS.ReadAt(s.name, p, off)
	if err == nil && gen != s.gen {
		err = fmt.Errorf("core: %s: file replaced under paged window (gen %d -> %d)", s.name, s.gen, gen)
	}
	if err != nil {
		s.noteMoved(err)
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (s *fsSource) noteMoved(err error) {
	if s.moved {
		return
	}
	s.moved = true
	s.h.Obs.Counter("core.paged.moved").Inc()
	s.h.Obs.Event("paged", fmt.Sprintf("%s: paged source unavailable: %v", s.name, err))
}

// loadPagedBody points w's body at name as a paged piece table, charging
// the memory budget for the full resident cap up front (the most the
// buffer will ever hold of the file). On error the window is untouched
// and the caller falls back to a materialized load.
func (h *Help) loadPagedBody(w *Window, name string, info vfs.Info) error {
	if err := h.checkMem(int(h.maxResident / MemBytesPerRune)); err != nil {
		return err
	}
	src := &fsSource{h: h, name: name, gen: info.Gen, size: info.Size}
	if err := w.Body.LoadPaged(src, h.maxResident); err != nil {
		h.Obs.Counter("core.paged.fallback").Inc()
		return err
	}
	w.fileGen = info.Gen
	h.Obs.Counter("core.paged.open").Inc()
	h.Obs.Event("paged", fmt.Sprintf("%s: opened paged (%d bytes, %d resident cap)", name, info.Size, h.maxResident))
	return nil
}
