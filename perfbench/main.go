// Command perfbench measures help on the machine it runs on, end to end
// and layer by layer, through the program's public entry points. Each of
// its three workloads is one simulated user with zero think time who
// waits for every effect before the next action (a closed loop driven by
// one goroutine over at most two connections):
//
//	edit    the paper's own session, run locally and journaled
//	remote  the /mnt/help file interface over srvnet, against sessiond
//	large   a 64 MiB log opened paged in a journaled session
//
// A run replays a fixed action sequence made from --seed and sized by
// --seconds, checks the program's outputs, and prints one JSON object as
// its last line: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced pass. End-to-end times are scaled to a nominal
// host speed by a speed probe timed in the same run (harness.go).
// README.md explains the workloads and metrics.
//
//	perfbench --workload edit --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// Seeds: defaultSeed is the one a change is developed against;
// heldOutSeed is the second seed a gain claim must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// maxTimed bounds the timed phase so that a run always ends well within
// three minutes; steps left when it expires count as failed actions.
const maxTimed = 120 * time.Second

var errDeadline = errors.New("timed phase exceeded its deadline")

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	logMiB   int    // large: size of the generated log (logMiB; smaller in the smoke test)
	setups   int    // set-ups per untraced run; 0: the workload's own count
	spans    string // where a traced run writes its spans
}

// logMiB is the size of large's log: 8x the default 8 MiB residency
// budget, 1024 pages of 64 KiB.
const logMiB = 64

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := config{logMiB: logMiB}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "edit", "workload: edit, remote or large")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "sizes the fixed action sequence to about this many seconds")
	fs.IntVar(&trace, "trace", 0, "1: run a traced pass and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	return cfg, nil
}

// workload is one user's fixed action sequence against one program
// set-up.
type workload interface {
	// setUp builds the program state the timed phase drives, timed as
	// setup_s. It may run several times, each after tearDown.
	setUp(m *meter, cs *checks) error
	// steps is the length of the fixed sequence; step performs one step
	// of it, which is one or more actions.
	steps() int
	step(i int)
	// finish runs the end-of-run output checks.
	finish(cs *checks)
	// registries are the program's own counter registries.
	registries() []*obs.Registry
	// extras are per-layer values the workload measures itself.
	extras() map[string]float64
	tearDown()
	// setups is how many set-ups an untraced run makes by default.
	setups() int
	// speedProbe is the probe whose work is most like the workload's;
	// its end-to-end times are scaled by it.
	speedProbe() probe
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "edit":
		return newEdit(cfg), nil
	case "remote":
		return newRemote(cfg), nil
	case "large":
		l, err := newLarge(cfg)
		if err != nil {
			return nil, err
		}
		return l, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want edit, remote or large)", cfg.workload)
}

// probeEvery is how often the timed phase re-times the speed probe: far
// more often than the host changes speed, at 1% to 2.5% of the run.
const probeEvery = 50 * time.Millisecond

// rssParts is how many equal parts of the sequence peak_rss_mb is taken
// over. Each part's peak RSS is read and the high-water mark reset at
// its end, so that a rare coincidence of large allocations (a checkpoint
// landing on the garbage of an open) moves one part, not the whole
// run's figure. The figure is the parts' upper quartile, the third
// highest: on large, a part's peak is high or low by whether a
// checkpoint fell in it, and about half the parts have one, so their
// median swung between the two.
const rssParts = 10

// pass is one set-up plus one timed replay of the sequence.
type pass struct {
	m        *meter
	cs       *checks
	setup    []float64 // seconds per set-up, at the probe's nominal speed
	speed    speed
	wall     time.Duration // timed phase, probes and RSS reads excluded
	normWall float64       // the same in seconds at the nominal speed
	peaks    []float64     // peak RSS in MiB of each part of the sequence
	rt0, rt1 rtSnap
	ctr      counters // program counters over the timed phase
	extras   map[string]float64
}

func runPass(wl workload, tr *tracer, setups int) (*pass, error) {
	p := &pass{m: &meter{tr: tr}, cs: &checks{}, speed: speed{probe: wl.speedProbe()}}
	for k := 0; k < setups; k++ {
		if k > 0 {
			wl.tearDown()
			p.cs = &checks{}
		}
		runtime.GC()
		scale, err := p.speed.measure()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := wl.setUp(p.m, p.cs); err != nil {
			wl.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds()*scale)
	}
	defer wl.tearDown()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	base := snapCounters(wl.registries()...)
	p.rt0 = readRuntime()
	n := wl.steps()
	var err error
	if p.m.scale, err = p.speed.measure(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(maxTimed)
	seg := t0
	var aside time.Duration // probes and RSS reads, excluded from the timed wall time
	part := 0
	for i := 0; i < n; i++ {
		if k := i * rssParts / n; k != part {
			part = k
			now := time.Now()
			if err := p.partPeak(); err != nil {
				return nil, err
			}
			d := time.Since(now)
			seg = seg.Add(d)
			aside += d
		}
		if now := time.Now(); now.Sub(seg) >= probeEvery {
			p.normWall += now.Sub(seg).Seconds() * p.m.scale
			if p.m.scale, err = p.speed.measure(); err != nil {
				return nil, err
			}
			seg = time.Now()
			aside += seg.Sub(now)
		}
		if time.Now().After(deadline) {
			for ; i < n; i++ {
				p.m.attempted++
				p.m.fail(errDeadline)
			}
			break
		}
		wl.step(i)
	}
	p.normWall += time.Since(seg).Seconds() * p.m.scale
	p.wall = time.Since(t0) - aside
	p.rt1 = readRuntime()
	if err := p.partPeak(); err != nil {
		return nil, err
	}
	p.ctr = snapCounters(wl.registries()...).minus(base)
	p.extras = wl.extras()
	wl.finish(p.cs)
	return p, nil
}

// partPeak records the peak RSS since the last reset and resets it.
func (p *pass) partPeak() error {
	mb, err := peakRSSMiB()
	if err != nil {
		return err
	}
	p.peaks = append(p.peaks, mb)
	return resetHWM()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints; README.md maps each
// role (input, effect, open) to its action class per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"input_p50_us", "us"},
	{"input_p75_us", "us"},
	{"effect_p50_us", "us"},
	{"open_ms", "ms"},
}

// perLayer are the metrics a traced run prints. A layer the workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"core.handle_us", "us"},
	{"core.render_us", "us"},
	{"core.render_p99_us", "us"},
	{"core.render.reuse_ratio", "ratio"},
	{"core.render.cells_per_gesture", "count"},
	{"core.open_us", "us"},
	{"core.wait_idle_us", "us"},
	{"core.queue.applied_per_command", "count"},
	{"text.resident_peak_mb", "MiB"},
	{"journal.bytes_per_action", "B"},
	{"journal.appends_per_action", "count"},
	{"journal.fsyncs_per_action", "count"},
	{"journal.checkpoints", "count"},
	{"srvnet.read_us", "us"},
	{"srvnet.write_us", "us"},
	{"srvnet.append_us", "us"},
	{"srvnet.stat_us", "us"},
	{"srvnet.readdir_us", "us"},
	{"srvnet.readat_us", "us"},
	{"srvnet.readahead.hit_ratio", "ratio"},
	{"srvnet.cache.hit_ratio", "ratio"},
	{"srvnet.reply.batched_per_op", "count"},
	{"notify.wake_us", "us"},
	{"notify.wake_p99_us", "us"},
	{"notify.published_per_action", "count"},
	{"notify.dropped", "count"},
	{"vfs.lookup_per_op", "count"},
	{"sessiond.spawn_ms", "ms"},
	{"srvnet.retries", "count"},
	{"srvnet.redials", "count"},
	{"srvnet.degraded", "count"},
	{"daemon.budget.refused.attach", "count"},
	{"daemon.budget.refused.mem", "count"},
	{"daemon.budget.refused.proc", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_kb_per_action", "KiB"},
	{"runtime.heap_live_mb", "MiB"},
	{"trace.overhead", "ratio"},
	{"bench.drift", "ratio"},
}

func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// actionsPerS is completed actions over the timed wall time, stalls
// included, at the probe's nominal speed.
func (p *pass) actionsPerS() float64 {
	return float64(p.m.attempted-p.m.failed) / p.normWall
}

// pct is a latency percentile of class c in µs at the probe's nominal
// speed. A failed action is +Inf; should it land on the percentile, the
// whole timed phase stands in for it, since JSON has no infinity.
func (p *pass) pct(c class, q float64) float64 {
	v := quantile(p.m.norm[c], q)
	if math.IsInf(v, 1) {
		return p.normWall * 1e6
	}
	return v
}

// rawPct is pct as measured, for the human-readable lines.
func (p *pass) rawPct(c class, q float64) float64 {
	v := quantile(p.m.lat[c], q)
	if math.IsInf(v, 1) {
		return float64(p.wall.Microseconds())
	}
	return v
}

func (p *pass) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":       quantile(p.setup, 0.5),
		"actions_per_s": p.actionsPerS(),
		"peak_rss_mb":   quantile(p.peaks, 0.75),
		"input_p50_us":  p.pct(clsInput, 0.5),
		"input_p75_us":  p.pct(clsInput, 0.75),
		"effect_p50_us": p.pct(clsEffect, 0.5),
		"open_ms":       p.pct(clsOpen, 0.5) / 1e3,
	}
}

// layers derives the per-layer metrics of a traced pass; untraced is
// the same sequence without spans, the base of trace.overhead.
func (p *pass) layers(tr *tracer, untraced *pass) map[string]float64 {
	c := p.ctr
	f := func(k string) float64 { return float64(c[k]) }
	p50 := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	actions := float64(p.m.attempted)
	gestures := float64(len(tr.durations("core.HandleAll")))
	commands := float64(len(p.m.lat[clsEffect]))
	// Wire round trips, as the clients count them: every srvnet.<op>
	// latency histogram observes one per round trip, and a cache hit
	// makes none.
	wireOps := 0.0
	for k, n := range c {
		if strings.HasPrefix(k, "srvnet.") && strings.HasSuffix(k, ".count") {
			wireOps += float64(n)
		}
	}
	wake := tr.durations("srvnet.ReadWait")
	v := map[string]float64{
		"core.handle_us":                 p50("core.HandleAll"),
		"core.render_us":                 p50("core.Render"),
		"core.render_p99_us":             quantile(tr.durations("core.Render"), 0.99),
		"core.render.reuse_ratio":        ratio(f("core.render.cols_reused"), f("core.render.cols_reused")+f("core.render.cols_repainted")),
		"core.render.cells_per_gesture":  ratio(f("core.render.cells"), gestures),
		"core.open_us":                   p50("core.OpenFile"),
		"core.wait_idle_us":              p50("core.WaitIdle"),
		"core.queue.applied_per_command": ratio(f("core.queue.applied"), commands),
		"journal.bytes_per_action":       ratio(f("journal.bytes"), actions),
		"journal.appends_per_action":     ratio(f("journal.appends"), actions),
		"journal.fsyncs_per_action":      ratio(f("journal.fsyncs"), actions),
		"journal.checkpoints":            f("journal.checkpoints"),
		"srvnet.read_us":                 p50("srvnet.ReadFile"),
		"srvnet.write_us":                p50("srvnet.WriteFile"),
		"srvnet.append_us":               p50("srvnet.AppendFile"),
		"srvnet.stat_us":                 p50("srvnet.Stat"),
		"srvnet.readdir_us":              p50("srvnet.ReadDir"),
		"srvnet.readat_us":               p50("srvnet.ReadFileAt"),
		"srvnet.readahead.hit_ratio":     ratio(f("srvnet.readahead.hit"), f("srvnet.readahead.hit")+f("srvnet.readahead.miss")),
		"srvnet.cache.hit_ratio":         ratio(f("srvnet.cache.hit"), f("srvnet.cache.hit")+f("srvnet.cache.miss")),
		"srvnet.reply.batched_per_op":    ratio(f("srvnet.reply.batched"), wireOps),
		"notify.wake_us":                 quantile(wake, 0.5),
		"notify.wake_p99_us":             quantile(wake, 0.99),
		"notify.published_per_action":    ratio(f("notify.published"), actions),
		"notify.dropped":                 f("notify.dropped"),
		"vfs.lookup_per_op":              ratio(f("vfs.lookup"), wireOps),
		"srvnet.retries":                 f("srvnet.retries"),
		"srvnet.redials":                 f("srvnet.redials"),
		"srvnet.degraded":                f("srvnet.degraded"),
		"daemon.budget.refused.attach":   f("daemon.budget.refused.attach"),
		"daemon.budget.refused.mem":      f("daemon.budget.refused.mem"),
		"daemon.budget.refused.proc":     f("daemon.budget.refused.proc"),
		"runtime.gc_cycles":              float64(p.rt1.gcCycles - p.rt0.gcCycles),
		"runtime.gc_pause_ms":            float64(p.rt1.pauseNs-p.rt0.pauseNs) / 1e6,
		"runtime.alloc_kb_per_action":    ratio(float64(p.rt1.allocBytes-p.rt0.allocBytes)/1024, actions),
		"runtime.heap_live_mb":           float64(p.rt1.liveBytes) / (1 << 20),
		"trace.overhead":                 ratio(p.actionsPerS(), untraced.actionsPerS()),
		"bench.drift":                    drift(p.m.lat[p.busiest()]),
	}
	for k, x := range p.extras {
		v[k] = x
	}
	return v
}

// describe prints the human-readable part of the output: what ran, the
// sample counts behind each percentile, and every output check.
func (p *pass) describe(out io.Writer, label string) {
	sc := p.speed.scales
	fmt.Fprintf(out, "%s: %s speed probe nominal %v, scale median %.3f, range %.3f..%.3f over %d probes\n",
		label, p.speed.probe.name, p.speed.probe.nominal, quantile(sc, 0.5), quantile(sc, 0), quantile(sc, 1), len(sc))
	fmt.Fprintf(out, "%s: %d set-up(s), median %.3f s at nominal speed\n", label, len(p.setup), quantile(p.setup, 0.5))
	fmt.Fprintf(out, "%s: %d actions attempted, %d failed, in %.3f s timed (%.3f s at nominal speed)\n",
		label, p.m.attempted, p.m.failed, p.wall.Seconds(), p.normWall)
	fmt.Fprintf(out, "%s: peak RSS of %d parts: upper quartile %.1f MiB, range %.1f..%.1f MiB\n",
		label, len(p.peaks), quantile(p.peaks, 0.75), quantile(p.peaks, 0), quantile(p.peaks, 1))
	for c := class(0); c < nClasses; c++ {
		if n := len(p.m.lat[c]); n > 0 {
			fmt.Fprintf(out, "%s: class %-6s n=%-6d measured p50=%.1fus p99=%.1fus, nominal p50=%.1fus p99=%.1fus\n",
				label, classNames[c], n, p.rawPct(c, 0.5), p.rawPct(c, 0.99), p.pct(c, 0.5), p.pct(c, 0.99))
		}
	}
	if p.m.firstErr != nil {
		fmt.Fprintf(out, "%s: first failure: %v\n", label, p.m.firstErr)
	}
	for _, c := range p.cs.list {
		status := "ok"
		if c.failed > 0 || c.ran == 0 {
			status = "FAILED"
		}
		fmt.Fprintf(out, "%s: check %-40s %d/%d %s", label, c.name, c.ran-c.failed, c.ran, status)
		if c.detail != "" {
			fmt.Fprintf(out, " (first: %s)", c.detail)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%s: bench.drift %.3f (class %s)\n", label, drift(p.m.lat[p.busiest()]), classNames[p.busiest()])
}

// busiest is the class with the most actions, the one bench.drift
// follows.
func (p *pass) busiest() class {
	best := clsInput
	for c := class(0); c < nClasses; c++ {
		if len(p.m.lat[c]) > len(p.m.lat[best]) {
			best = c
		}
	}
	return best
}

func (p *pass) correct() bool { return p.m.failed == 0 && p.cs.ok() }

// run executes one benchmark run and returns its result line. A traced
// run replays the sequence twice, untraced and traced, so each pass is
// sized for half of --seconds and the run takes about as long as an
// untraced one.
func run(cfg config, out io.Writer) (*result, error) {
	if cfg.trace && cfg.seconds > 1 {
		cfg.seconds /= 2
	}
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%v steps=%d (default seed %d, held-out seed %d)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, wl.steps(), defaultSeed, heldOutSeed)
	fmt.Fprintln(out, "perfbench: journals write to an in-memory medium (journal.MemFS) with the default batch fsync and checkpoint cadence")
	if !cfg.trace {
		setups := cfg.setups
		if setups <= 0 {
			setups = wl.setups()
		}
		p, err := runPass(wl, nil, setups)
		if err != nil {
			return nil, err
		}
		p.describe(out, "run")
		return &result{Correct: p.correct(), Attempted: p.m.attempted, Failed: p.m.failed,
			Metrics: fill(endToEnd, p.endToEnd())}, nil
	}
	untraced, err := runPass(wl, nil, 1)
	if err != nil {
		return nil, err
	}
	untraced.describe(out, "untraced")
	tr := newTracer()
	p, err := runPass(wl, tr, 1)
	if err != nil {
		return nil, err
	}
	p.describe(out, "traced")
	if err := tr.write(cfg.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "traced: %d spans written to %s\n", len(tr.spans), cfg.spans)
	return &result{Correct: p.correct() && untraced.correct(), Attempted: p.m.attempted, Failed: p.m.failed,
		Metrics: fill(perLayer, p.layers(tr, untraced))}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
