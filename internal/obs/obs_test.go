package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Store(9)
	if got := c.Load(); got != 0 {
		t.Fatalf("nil counter Load = %d, want 0", got)
	}
	var r *Registry
	if r.Counter("x") != nil {
		t.Fatal("nil registry should hand out nil counters")
	}
	r.Histogram("x").Observe(time.Millisecond)
	r.Event("e", "")
	r.StartSpan("s", "").End()
	if r.StatsText() != "" {
		t.Fatal("nil registry should render empty")
	}
}

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("core.keystrokes")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	if r.Counter("core.keystrokes") != c {
		t.Fatal("same name must return the same counter")
	}
	c.Store(11)
	if got := c.Load(); got != 11 {
		t.Fatalf("after Store, Load = %d, want 11", got)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{128 * time.Microsecond, 7},
		{129 * time.Microsecond, 8},
		{131072 * time.Microsecond, 17},
		{131073 * time.Microsecond, histBuckets},
		{time.Hour, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("render")
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(time.Second) // overflow
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := h.MaxMicros(); got != 1e6 {
		t.Fatalf("MaxMicros = %d, want 1000000", got)
	}
	text := h.Text()
	for _, want := range []string{"count 4\n", "le_us 4 2\n", "le_us 128 1\n", "le_us inf 1\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("histogram text missing %q:\n%s", want, text)
		}
	}
}

func TestStatsText(t *testing.T) {
	r := New()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("c.windows", func() int64 { return 7 })
	r.Histogram("exec").Observe(5 * time.Microsecond)
	text := r.StatsText()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	want := []string{
		"a.first 1",
		"b.second 2",
		"c.windows 7",
		"exec.count 1",
		"exec.max_us 5",
		"exec.sum_us 5",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), text)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

// TestSink: every finished span and event is handed to the installed
// sink in order, with its name, attrs and duration; after SetSink(nil)
// spans are timed and dropped.
func TestSink(t *testing.T) {
	r := New()
	var got []Span
	r.SetSink(func(sp Span) { got = append(got, sp) })
	d := r.StartSpan("exec", "cmd=date").End()
	r.Event("fault", "remote (degraded): connection refused")
	r.SetSink(nil)
	r.Event("dropped", "")
	want := []Span{
		{Name: "exec", Attrs: "cmd=date", Dur: d},
		{Name: "fault", Attrs: "remote (degraded): connection refused"},
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
