package obs_test

import (
	"strings"
	"testing"

	"repro/internal/notify"
	"repro/internal/obs"
)

// TestSpansAndTrace follows spans from the registry into the store a
// session keeps them in, a notify bus installed as the sink: each span
// and event becomes one "trace" event with its name and attrs, seqs
// ascend, and once the history wraps only the newest spans survive,
// still in order.
func TestSpansAndTrace(t *testing.T) {
	b := notify.NewSized(4)
	r := obs.New()
	r.SetSink(b.Sink())
	r.StartSpan("exec", "cmd=date").End()
	r.Event("fault", "remote (degraded): connection refused")
	evs := b.History()
	if len(evs) != 2 {
		t.Fatalf("got %d trace events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind != "trace" || ev.Window != 0 {
			t.Fatalf("event %+v, want a window-0 trace event", ev)
		}
	}
	if d := evs[0].Detail; !strings.HasPrefix(d, "exec ") || !strings.HasSuffix(d, "us cmd=date") {
		t.Fatalf("span 0 detail = %q", d)
	}
	if d := evs[1].Detail; d != "fault 0us remote (degraded): connection refused" {
		t.Fatalf("span 1 detail = %q", d)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("sequence not ascending: %d then %d", evs[0].Seq, evs[1].Seq)
	}
	// Wrap: only the newest 4 survive, still in order.
	for i := 0; i < 10; i++ {
		r.Event("tick", "")
	}
	evs = b.History()
	if len(evs) != 4 {
		t.Fatalf("after wrap got %d trace events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs after wrap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[3].Seq != 12 || evs[3].Detail != "tick 0us" {
		t.Fatalf("newest = %+v, want seq 12 tick 0us", evs[3])
	}
}
