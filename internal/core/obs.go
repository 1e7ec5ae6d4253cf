package core

import (
	"fmt"

	"repro/internal/obs"
)

// instruments holds the pre-resolved observability handles the hot
// paths touch. Name lookup happens once, in SetObs; after that a
// counter bump is a single atomic add and, with observability off,
// every handle is nil (a no-op) and `on` gates the clock reads, so
// the uninstrumented paths pay nothing.
type instruments struct {
	on bool

	gestures      *obs.Counter
	execBuiltin   *obs.Counter
	execExternal  *obs.Counter
	renders       *obs.Counter
	rendersFull   *obs.Counter
	colsRepainted *obs.Counter
	colsReused    *obs.Counter
	cellsTouched  *obs.Counter

	// applied counts mutations drained off the apply queue;
	// procsStarted counts external commands launched.
	applied      *obs.Counter
	procsStarted *obs.Counter

	gestureHist *obs.Histogram
	execHist    *obs.Histogram
	renderHist  *obs.Histogram
	procHist    *obs.Histogram // external command wall-clock duration

	gestureTick uint
	renderTick  uint
}

// sampleEvery is the hot-path timing sample rate. Counters count every
// event; the clock reads and span allocation behind the gesture and
// render histograms happen for one event in sampleEvery, because at
// ~1µs per gesture two time.Now calls are a measurable fraction of the
// thing being measured. The ticks live on the event loop, so sampling
// is deterministic, and the first event is always sampled — a single
// gesture still leaves a span in the trace.
const sampleEvery = 8

func (ins *instruments) sampleGesture() bool {
	ins.gestureTick++
	return ins.gestureTick%sampleEvery == 1
}

func (ins *instruments) sampleRender() bool {
	ins.renderTick++
	return ins.renderTick%sampleEvery == 1
}

// SetObs installs (or, with nil, removes) the observability registry:
// gesture/exec/render spans and histograms, damage accounting, and the
// interaction gauges, propagated to the namespace's lookup/bind
// counters as well. New installs a fresh registry by default; SetObs
// exists so benchmarks and embedders can swap or disable it.
func (h *Help) SetObs(r *obs.Registry) {
	h.Obs = r
	if h.FS != nil {
		h.FS.SetObs(r)
	}
	h.Notify.SetObs(r)
	if r == nil {
		h.ins = instruments{}
		return
	}
	// The bus is the registry's span sink and the only store of its
	// spans: trace spans and fault/panic events stream into
	// /mnt/help/log alongside the state changes, so one subscription
	// observes everything, and /mnt/help/trace is read from its history.
	r.SetSink(h.Notify.Sink())
	h.ins = instruments{
		on:            true,
		gestures:      r.Counter("core.gestures"),
		execBuiltin:   r.Counter("core.exec.builtin"),
		execExternal:  r.Counter("core.exec.external"),
		renders:       r.Counter("core.renders"),
		rendersFull:   r.Counter("core.renders.full"),
		colsRepainted: r.Counter("core.render.cols_repainted"),
		colsReused:    r.Counter("core.render.cols_reused"),
		cellsTouched:  r.Counter("core.render.cells"),
		applied:       r.Counter("core.queue.applied"),
		procsStarted:  r.Counter("core.procs.started"),
		gestureHist:   r.Histogram("gesture"),
		execHist:      r.Histogram("exec"),
		renderHist:    r.Histogram("render"),
		procHist:      r.Histogram("proc"),
	}
	// The interaction metrics live on Help as always-on atomics (so
	// Metrics() is a consistent snapshot regardless of registry state);
	// gauges expose them in /mnt/help/stats without double counting.
	r.Gauge("core.presses", h.mPresses.Load)
	r.Gauge("core.travel", h.mTravel.Load)
	r.Gauge("core.keystrokes", h.mKeystrokes.Load)
	r.Gauge("core.commands", h.mCommands.Load)
	// The running-command gauge reads an always-on atomic, and queue
	// depth reads len() of the apply channel: both are safe from the
	// stats goroutine without the actor lock.
	r.Gauge("core.procs.running", h.mProcsLive.Load)
	r.Gauge("core.queue.depth", func() int64 { return int64(len(h.applyq)) })
}

// SetStatsPath records where helpfs mounted the stats file, so the
// Metrics built-in can open it as a window.
func (h *Help) SetStatsPath(p string) { h.statsPath = p }

// metricsCmd implements the Metrics built-in: open (or reveal) the
// mounted stats file in a window and reload it, so each execution
// shows live numbers. Runs under the actor lock.
func (h *Help) metricsCmd() {
	if h.statsPath == "" {
		h.appendErrors("Metrics: no stats file mounted\n")
		return
	}
	w, err := h.openFile(h.statsPath, "")
	if err != nil {
		h.appendErrors(fmt.Sprintf("Metrics: %v\n", err))
		return
	}
	if err := h.get(w); err != nil {
		h.appendErrors(fmt.Sprintf("Metrics: %v\n", err))
	}
}
