package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// class is the kind of user-visible action a percentile is taken over.
// Classes are never pooled: a pooled tail is only the slowest rare class.
type class int

const (
	// clsInput: one gesture or keystroke until Render returns (edit);
	// one srvnet round trip (remote; large's remote log viewer).
	clsInput class = iota
	// clsEffect: a middle-clicked external command until its output is
	// applied (WaitIdle) and repainted (edit, large); a write on one
	// connection until the other connection reads the new bytes (remote).
	clsEffect
	// clsOpen: opening a file until its first paint (edit, large), or
	// until the opened window's text has been read back (remote).
	clsOpen
	// clsAside: actions with no end-to-end role, which still count as
	// attempted and in actions_per_s: large's gestures and keystrokes,
	// whose latency swings with the host's memory contention (README.md),
	// and remote's cache hits, which make no round trip.
	clsAside
	nClasses
)

var classNames = [nClasses]string{"input", "effect", "open", "aside"}

// meter times the actions of one pass. Every action counts as
// attempted; one that errors or fails its check counts as failed and is
// recorded as +Inf, so it misses every percentile.
type meter struct {
	tr        *tracer             // nil in an untraced pass
	lat       [nClasses][]float64 // µs as measured
	norm      [nClasses][]float64 // µs at the probe's nominal speed
	scale     float64             // nominal ÷ current probe time
	attempted int
	failed    int
	firstErr  error

	cur     class
	t0      time.Time
	elapsed time.Duration
	running bool
}

// begin starts one action of class c; name labels its root span.
func (m *meter) begin(c class, name string) {
	m.cur = c
	m.attempted++
	m.running = true
	m.tr.root(name)
	m.t0 = time.Now()
}

// stop ends the user-visible interval of the current action; checks
// made after it are not timed.
func (m *meter) stop() {
	if !m.running {
		return
	}
	m.elapsed = time.Since(m.t0)
	m.running = false
	m.tr.endRoot()
}

// end records the current action, failed if err is non-nil.
func (m *meter) end(err error) {
	m.stop()
	if err != nil {
		m.fail(err)
		return
	}
	us := float64(m.elapsed.Nanoseconds()) / 1e3
	m.lat[m.cur] = append(m.lat[m.cur], us)
	m.norm[m.cur] = append(m.norm[m.cur], us*m.scale)
}

func (m *meter) fail(err error) {
	m.failed++
	m.lat[m.cur] = append(m.lat[m.cur], math.Inf(1))
	m.norm[m.cur] = append(m.norm[m.cur], math.Inf(1))
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// call runs fn, one public call into the program, inside a span.
func (m *meter) call(name string, fn func()) {
	if m.tr == nil {
		fn()
		return
	}
	id := m.tr.begin(name)
	fn()
	m.tr.end(id)
}

// span is one timed call: spans of one action share its trace id, and
// every span but the action's root names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Trace  int32  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an action's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Trace id 0 holds set-up spans, ids from 1 number the timed actions.
type tracer struct {
	epoch time.Time
	spans []span
	trace int32
	stack []int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) root(name string) {
	if t == nil {
		return
	}
	t.trace++
	t.stack = t.stack[:0]
	t.begin(name)
}

func (t *tracer) endRoot() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.end(t.stack[0])
	t.stack = t.stack[:0]
}

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, ID: id, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// durations returns the durations in µs of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// drift is the p50 of the last quarter of xs over the p50 of its first
// quarter: above 1 means actions got slower as the run went on.
func drift(xs []float64) float64 {
	n := len(xs) / 4
	if n == 0 {
		return 1
	}
	first := quantile(xs[:n], 0.5)
	if first == 0 {
		return 1
	}
	return quantile(xs[len(xs)-n:], 0.5) / first
}

// resetPeakRSS returns set-up garbage to the OS and resets the kernel's
// resident high-water mark, so the peak covers the timed phase only.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetHWM()
}

// resetHWM sets the resident high-water mark (VmHWM) to the current RSS.
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident high-water mark (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rtSnap is the Go runtime's own accounting at one instant.
type rtSnap struct {
	gcCycles   uint64
	allocBytes uint64
	liveBytes  uint64
	pauseNs    uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSnap{gcCycles: u(0), allocBytes: u(1), liveBytes: u(2), pauseNs: ms.PauseTotalNs}
}

// counters sums the named counters of several registries; deltas of two
// snapshots give what the program counted during the timed phase.
type counters map[string]int64

func snapCounters(regs ...*obs.Registry) counters {
	c := counters{}
	for _, r := range regs {
		for k, v := range r.StatsMap() {
			c[k] += v
		}
	}
	return c
}

func (c counters) minus(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// check is one output check: how many instances ran and how many failed.
type check struct {
	name   string
	ran    int
	failed int
	detail string // the first failure
}

type checks struct{ list []*check }

// get returns the named check, creating it on first use.
func (cs *checks) get(name string) *check {
	for _, c := range cs.list {
		if c.name == name {
			return c
		}
	}
	c := &check{name: name}
	cs.list = append(cs.list, c)
	return c
}

// note records one instance of the named check; it returns err so an
// action can fail on it.
func (cs *checks) note(name string, err error) error {
	c := cs.get(name)
	c.ran++
	if err != nil {
		c.failed++
		if c.detail == "" {
			c.detail = err.Error()
		}
	}
	return err
}

func (cs *checks) ok() bool {
	for _, c := range cs.list {
		if c.failed > 0 || c.ran == 0 {
			return false
		}
	}
	return true
}

// failAction records an action of class c that could not be performed.
func (m *meter) failAction(c class, name string, err error) {
	m.begin(c, name)
	m.end(err)
}

// The host this benchmark was calibrated on runs in two speed states
// about 1.9x apart and flips between them within minutes, which no
// amount of work per run averages away. A probe is a fixed piece of work
// that shares nothing with the program; timed next to the actions, it
// gives the host's current speed, and end-to-end timings are reported
// at the speed where one probe takes its nominal time.
type probe struct {
	name    string
	work    func() error
	nominal time.Duration
}

// hostProbe, for edit, is CPU and cache work, loopback round trips and
// page faults in one: the host's compute, wakeup and memory speeds move
// apart, and edit pays all three. Its nominal time is about its time on
// a 2-vCPU VM in its slower state.
var hostProbe = probe{name: "host", work: hostWork, nominal: 400 * time.Microsecond}

// wireProbe, for remote and large, is 16 round trips of 64 bytes over a
// loopback TCP connection of the benchmark's own, echoed by a goroutine:
// the wakeups and system calls every srvnet round trip pays, none of the
// program's code. Its nominal time is about its time on a 2-vCPU VM in
// its slower state.
var wireProbe = probe{name: "wire", work: wireWork, nominal: 100 * time.Microsecond}

func hostWork() error {
	cpuWork()
	if err := wireWork(); err != nil {
		return err
	}
	return faultWork()
}

var (
	probeBuf  = make([]byte, 48<<10)
	probeInts = make([]int, 512)
	probeSort = make([]int, 512)
	probeMap  = make(map[int]int, 512)
	probeSink uint64
)

// cpuWork is integer mixing over a buffer larger than L1, a sort and
// map traffic, all without allocating.
func cpuWork() {
	h := uint64(1469598103934665603)
	for pass := 0; pass < 2; pass++ {
		for i := range probeBuf {
			h ^= uint64(probeBuf[i])
			h *= 1099511628211
			probeBuf[i] = byte(h >> 29)
		}
	}
	for i := range probeInts {
		h = h*6364136223846793005 + 1442695040888963407
		probeInts[i] = int(h >> 33)
	}
	copy(probeSort, probeInts)
	sort.Ints(probeSort)
	clear(probeMap)
	for i, v := range probeSort {
		probeMap[v&1023] += i
	}
	probeSink += h + uint64(len(probeMap))
}

// faultWork maps 64 fresh anonymous pages, touches each once and unmaps
// them: 64 page faults.
func faultWork() error {
	const page = 4096
	b, err := syscall.Mmap(-1, 0, 64*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < len(b); i += page {
		b[i] = 1
	}
	return syscall.Munmap(b)
}

var (
	wireOnce sync.Once
	wireConn net.Conn
	wireErr  error
	wireBuf  = make([]byte, 64)
)

// wireWork is 16 round trips over the probe's loopback connection. The
// connection and its echo goroutine are made on first use and live as
// long as the process.
func wireWork() error {
	wireOnce.Do(func() {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			wireErr = err
			return
		}
		defer l.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				accepted <- nil
				return
			}
			accepted <- c
			buf := make([]byte, len(wireBuf))
			for {
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
		if wireConn, wireErr = net.Dial("tcp", l.Addr().String()); wireErr == nil && <-accepted == nil {
			wireErr = fmt.Errorf("wire probe: accept failed")
		}
	})
	if wireErr != nil {
		return wireErr
	}
	for i := 0; i < 16; i++ {
		if _, err := wireConn.Write(wireBuf); err != nil {
			return err
		}
		if _, err := io.ReadFull(wireConn, wireBuf); err != nil {
			return err
		}
	}
	return nil
}

// probeWindow is how far back the speed looks. The host's speed states
// last minutes, while the program's own GC cycles and goroutines, which
// a probe may overlap, come and go within milliseconds: the fastest
// probe of the last second is one that nothing of the program slowed.
const probeWindow = time.Second

// speed tracks the host's speed from a probe.
type speed struct {
	probe  probe
	at     []time.Time     // when each probe of the window ran
	took   []time.Duration // its time, the fastest of three runs
	scales []float64       // every scale handed out, for the report
}

// measure times the probe (the fastest of three, so a preemption does
// not count) and returns nominal ÷ the fastest probe of the last
// probeWindow: the factor that turns a time measured now into a time at
// the nominal speed.
func (s *speed) measure() (float64, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := s.probe.work(); err != nil {
			return 0, fmt.Errorf("%s probe: %w", s.probe.name, err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	now := time.Now()
	s.at, s.took = append(s.at, now), append(s.took, best)
	for len(s.at) > 1 && now.Sub(s.at[0]) > probeWindow {
		s.at, s.took = s.at[1:], s.took[1:]
	}
	for _, d := range s.took {
		best = min(best, d)
	}
	scale := float64(s.probe.nominal) / float64(best)
	s.scales = append(s.scales, scale)
	return scale, nil
}
