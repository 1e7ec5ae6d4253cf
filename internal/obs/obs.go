// Package obs is the self-observation substrate: lock-cheap counters,
// fixed-bucket latency histograms, and timed spans, collected in a
// Registry that renders its counters and histograms as flat text so
// helpfs can serve them as files under /mnt/help (stats, histo/<name>).
//
// Spans are not stored here. A finished span is handed to the one sink
// installed with SetSink; a session installs its notify bus, whose
// history is the only place spans are kept and what /mnt/help/trace is
// rendered from.
//
// Everything is nil-safe: a nil *Counter, *Histogram, *Registry, or
// *ActiveSpan is a no-op, so instrumented code never branches on
// "is observability enabled" — it just calls through.
//
// The hot-path discipline mirrors the render path's: counters are a
// single atomic add, histograms are three atomic adds plus a CAS for
// the max, and ending a span is one atomic load of the sink.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjusted atomic value. The zero value is
// ready to use; a nil Counter ignores writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

func (c *Counter) Inc() { c.Add(1) }

// Store overwrites the value; used to mirror event-loop-owned plain
// ints (event.Machine presses/travel) into something readable from
// other goroutines.
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two latency buckets: bucket i
// holds observations with ceil(d) <= 1<<i microseconds, i = 0..17,
// spanning 1µs to ~131ms; slower observations land in the overflow
// bucket. Eighteen buckets cover everything from a vfs lookup to a
// stalled srvnet RPC without per-histogram configuration.
const histBuckets = 18

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use; a nil Histogram ignores observations.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	i := bits.Len64(us - 1) // smallest i with 1<<i >= us
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	for {
		max := h.maxNS.Load()
		if int64(d) <= max || h.maxNS.CompareAndSwap(max, int64(d)) {
			return
		}
	}
}

func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) SumMicros() int64 {
	if h == nil {
		return 0
	}
	return h.sumNS.Load() / 1e3
}

func (h *Histogram) MaxMicros() int64 {
	if h == nil {
		return 0
	}
	return h.maxNS.Load() / 1e3
}

// Text renders the histogram as flat `key value` lines: count, sum_us,
// max_us, then one cumulative-bound `le_us <bound> <count>` line per
// occupied bucket (le_us inf for the overflow bucket). This is the
// byte content of /mnt/help/histo/<name>.
func (h *Histogram) Text() string {
	var b strings.Builder
	if h == nil {
		return ""
	}
	fmt.Fprintf(&b, "count %d\n", h.count.Load())
	fmt.Fprintf(&b, "sum_us %d\n", h.sumNS.Load()/1e3)
	fmt.Fprintf(&b, "max_us %d\n", h.maxNS.Load()/1e3)
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			fmt.Fprintf(&b, "le_us %d %d\n", uint64(1)<<i, n)
		}
	}
	if n := h.buckets[histBuckets].Load(); n > 0 {
		fmt.Fprintf(&b, "le_us inf %d\n", n)
	}
	return b.String()
}

// Span is one completed trace span (or an instantaneous event, with
// Dur zero), as handed to the sink.
type Span struct {
	Name  string
	Attrs string
	Dur   time.Duration
}

// Registry owns a process's named counters, histograms, gauges, and
// span sink. All methods are safe for concurrent use; name lookup
// takes a mutex but instrumented code resolves names once and then
// touches only atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	histos   map[string]*Histogram
	gauges   map[string]func() int64
	sink     atomic.Pointer[func(Span)]
}

// New returns an empty Registry with no sink.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		histos:   map[string]*Histogram{},
		gauges:   map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it on first use. On a
// nil Registry it returns nil, which is itself a valid no-op Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histos[name]
	if h == nil {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// Gauge registers a named read-on-demand value; fn must be safe to
// call from any goroutine.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// HistogramNames returns the sorted names of all histograms created so
// far; helpfs uses it to materialize /mnt/help/histo/<name> files.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.histos))
	for name := range r.histos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetSink installs the function every finished span is handed to (nil
// to remove it); without one, spans are timed and dropped. fn runs on
// the goroutine that ends the span and must not block.
func (r *Registry) SetSink(fn func(Span)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

func (r *Registry) publish(sp Span) {
	if fn := r.sink.Load(); fn != nil {
		(*fn)(sp)
	}
}

// ActiveSpan is a span in progress; End publishes it. A nil ActiveSpan
// (from a nil Registry) is a no-op.
type ActiveSpan struct {
	r     *Registry
	name  string
	attrs string
	start time.Time
}

// StartSpan begins a span; the caller must End it to publish.
func (r *Registry) StartSpan(name, attrs string) *ActiveSpan {
	if r == nil {
		return nil
	}
	return &ActiveSpan{r: r, name: name, attrs: attrs, start: time.Now()}
}

// End publishes the span and returns its duration (zero on a nil
// span), so callers can feed a latency histogram without reading the
// clock twice.
func (a *ActiveSpan) End() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.start)
	a.r.publish(Span{Name: a.name, Attrs: a.attrs, Dur: d})
	return d
}

// Event publishes an instantaneous zero-duration span, used for
// discrete occurrences like fault reports and degradation transitions.
func (r *Registry) Event(name, attrs string) {
	if r == nil {
		return
	}
	r.publish(Span{Name: name, Attrs: attrs})
}

// StatsMap returns every counter, gauge, and histogram summary as a
// flat name→value map. Histograms contribute <name>.count, .sum_us,
// and .max_us so a flat reader still sees latency totals.
func (r *Registry) StatsMap() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	histos := make(map[string]*Histogram, len(r.histos))
	for name, h := range r.histos {
		histos[name] = h
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	r.mu.Unlock()

	out := make(map[string]int64, len(counters)+len(gauges)+3*len(histos))
	for name, c := range counters {
		out[name] = c.Load()
	}
	for name, fn := range gauges {
		out[name] = fn()
	}
	for name, h := range histos {
		out[name+".count"] = h.Count()
		out[name+".sum_us"] = h.SumMicros()
		out[name+".max_us"] = h.MaxMicros()
	}
	return out
}

// StatsText renders StatsMap as sorted `key value` lines: the byte
// content of /mnt/help/stats.
func (r *Registry) StatsText() string {
	m := r.StatsMap()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, m[name])
	}
	return b.String()
}
