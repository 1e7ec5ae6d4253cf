// Package sessiond hosts many independent help sessions in one
// process: the multi-user arrangement the paper's Discussion sketches,
// where one CPU server runs the shell-like process for every terminal
// that calls in.
//
// A Manager stamps sessions out of a world.Template on first attach —
// each gets a private namespace union-bound over the template's shared
// sealed userland, its own journal directory guarded by a lockfile, and
// hard limits on live commands, Errors growth, and queue depth. The
// Manager implements srvnet.Hub, so one listener multiplexes every
// session by attach handshake.
//
// Sessions are failure domains. A panic inside one session's actor, a
// runaway command, or a journal write error marks that session crashed
// — its work is killed, its journal flushed, its row in every session's
// /mnt/help/sessions table updated — while the remaining sessions keep
// serving. Shutdown is a bounded graceful drain: attaches stop with a
// typed draining error, live commands are killed, and every journal is
// flushed and checkpointed so each session is recoverable byte for
// byte.
package sessiond

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/srvnet"
	"repro/internal/vfs"
	"repro/internal/world"
)

// Typed refusals. ErrMaxSessions wraps srvnet.ErrBusy and ErrDraining
// wraps srvnet.ErrDraining so they cross the wire with the right codes
// and clients classify them with errors.Is.
var (
	ErrMaxSessions = fmt.Errorf("sessiond: session table full: %w", srvnet.ErrBusy)
	ErrDraining    = fmt.Errorf("sessiond: %w", srvnet.ErrDraining)
	ErrCrashed     = errors.New("sessiond: session crashed")
	ErrBadName     = errors.New("sessiond: bad session name")
)

// DefaultMaxSessions bounds the table when Config.MaxSessions is zero.
const DefaultMaxSessions = 1024

// Config parameterizes a Manager. Zero values mean: 80x24 screens,
// DefaultMaxSessions, no idle reaping, no journals, no per-session
// limits beyond the core defaults.
type Config struct {
	// Width, Height size each session's screen.
	Width, Height int
	// MaxSessions bounds live sessions; attaches beyond it are refused
	// with ErrMaxSessions.
	MaxSessions int
	// TTL reaps sessions that have had no attachments and no use for
	// this long: their journals are checkpointed and closed, their
	// locks released, their memory dropped. Zero disables reaping.
	TTL time.Duration
	// JournalRoot, when set, gives each session a write-ahead journal
	// in JournalRoot/<name>, lockfile-guarded; a session whose
	// directory holds a checkpoint is recovered from it on spawn.
	JournalRoot string
	// Fsync is the journal durability policy.
	Fsync journal.Policy
	// MaxSessionBytes caps each session's resident buffer bytes
	// (core.Limits.MaxBytes). Zero keeps the core default (unlimited).
	MaxSessionBytes int64
	// MaxResident sets each session's paged-text threshold and
	// per-buffer residency cap (core.Limits.MaxResident). Zero keeps
	// the core default; negative disables paging.
	MaxResident int64
	// MaxBytes bounds the daemon's total resident buffer bytes summed
	// across sessions: body loads past it are refused with a typed busy
	// error carrying a retry-after hint, and new sessions are refused
	// admission while the budget is spent. Zero means unbounded.
	MaxBytes int64
	// MaxTotalProcs bounds live external commands summed across
	// sessions, checked after each session's own core.Limits.MaxProcs.
	// Zero means unbounded.
	MaxTotalProcs int
	// RetryAfter is the hint stamped on budget refusals; zero means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Obs, when set, gains gauges sessiond.live and sessiond.crashed
	// plus counters for spawns, attaches, detaches, reaps, and crashes.
	Obs *obs.Registry
	// Build produces the named session's world; typically a closure
	// over Template.NewSession. The name lets hosts and tests
	// customize or record per-session worlds.
	Build func(name string, w, h int) (*world.World, error)
	// JournalFS overrides how a session's journal directory is opened
	// (tests inject fault-wrapped or in-memory backends). Nil means
	// journal.DirFS(JournalRoot/<name>); only consulted when
	// JournalRoot is set or JournalFS itself is non-nil.
	JournalFS func(name string) (journal.Fsys, error)
}

// session state machine: active -> crashed (containment) and
// active|crashed -> closed (reap or drain). Attach only succeeds on
// active; every transition shows in /mnt/help/sessions.
type state int

const (
	stateActive state = iota
	stateCrashed
	stateClosed
)

func (s state) String() string {
	switch s {
	case stateActive:
		return "active"
	case stateCrashed:
		return "crashed"
	case stateClosed:
		return "closed"
	}
	return "unknown"
}

// session is one hosted help instance and its lifecycle bookkeeping.
// The Manager's mutex guards every field; the world's own actor lock
// guards the session's interior.
type session struct {
	name     string
	w        *world.World
	st       state
	reason   string // why crashed
	attached int    // live attach handshakes
	lastUsed time.Time
	born     time.Time

	jw   *journal.Writer
	lock *journal.DirLock

	// Spawn happens outside the Manager lock; ready closes when the
	// build finishes (err set on failure) so concurrent attaches to a
	// session being born wait instead of double-building.
	ready chan struct{}
	err   error
}

// Manager hosts the session table. It implements srvnet.Hub.
//
// Lock ordering: a session's actor lock may be held while taking the
// Manager lock (the sessions-table device and crash hooks do), so code
// holding the Manager lock must never call into a session method that
// locks — only lock-free atomics like WindowCount/ProcCount.
type Manager struct {
	cfg Config

	// bus is the daemon-level event stream: one line per session
	// lifecycle transition (spawn, attach, detach, crash, reap, close,
	// drain), plus every hosted session's own events forwarded with a
	// "<session>/<window>" prefix. Served as /mnt/help/daemonlog in
	// every session's namespace.
	bus *notify.Bus

	mu       sync.Mutex
	sessions map[string]*session
	draining bool

	reaperStop chan struct{}
	reaperDone chan struct{}

	cSpawns   *obs.Counter
	cAttaches *obs.Counter
	cDetaches *obs.Counter
	cReaps    *obs.Counter
	cCrashes  *obs.Counter

	// Budget refusal counters: daemon.budget.refused.{attach,mem,proc}.
	cAttachRefused *obs.Counter
	cMemRefused    *obs.Counter
	cProcRefused   *obs.Counter
}

// NewManager returns a Manager over cfg. When cfg.TTL is set, an idle
// reaper runs until Drain.
func NewManager(cfg Config) *Manager {
	if cfg.Width <= 0 {
		cfg.Width = 80
	}
	if cfg.Height <= 0 {
		cfg.Height = 24
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	m := &Manager{
		cfg:      cfg,
		bus:      notify.New(),
		sessions: map[string]*session{},
	}
	r := cfg.Obs
	m.bus.SetObs(r)
	m.cSpawns = r.Counter("sessiond.spawns")
	m.cAttaches = r.Counter("sessiond.attaches")
	m.cDetaches = r.Counter("sessiond.detaches")
	m.cReaps = r.Counter("sessiond.reaps")
	m.cCrashes = r.Counter("sessiond.crashes")
	m.cAttachRefused = r.Counter("daemon.budget.refused.attach")
	m.cMemRefused = r.Counter("daemon.budget.refused.mem")
	m.cProcRefused = r.Counter("daemon.budget.refused.proc")
	if r != nil {
		r.Gauge("sessiond.live", func() int64 { return int64(m.countState(stateActive)) })
		r.Gauge("sessiond.crashed", func() int64 { return int64(m.countState(stateCrashed)) })
		r.Gauge("daemon.budget.bytes", m.MemBytes)
		r.Gauge("daemon.budget.procs", func() int64 { return int64(m.TotalProcs()) })
		r.Gauge("daemon.budget.sessions", func() int64 { return int64(m.SessionCount()) })
	}
	if cfg.TTL > 0 {
		m.reaperStop = make(chan struct{})
		m.reaperDone = make(chan struct{})
		go m.reaper()
	}
	return m
}

func (m *Manager) countState(want state) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.sessions {
		if s.st == want {
			n++
		}
	}
	return n
}

// validName admits the characters safe in a journal directory name and
// a wire handshake: letters, digits, dot, underscore, dash — but not
// the path-meaningful "." and "..".
func validName(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// AttachSession resolves one attach handshake: the session is spawned
// on first attach, refused while the table is full, the manager
// draining, or the session crashed. The returned namespace is the
// session's serialized view; the detach function drops the attachment
// (srvnet calls it when the connection leaves). Implements srvnet.Hub.
func (m *Manager) AttachSession(name string) (*vfs.FS, func(), error) {
	if !validName(name) {
		return nil, nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, nil, ErrDraining
		}
		s, ok := m.sessions[name]
		if !ok {
			if err := m.admitSpawnLocked(); err != nil {
				m.mu.Unlock()
				return nil, nil, err
			}
			s = &session{name: name, ready: make(chan struct{}), born: time.Now()}
			m.sessions[name] = s
			m.mu.Unlock()
			m.spawn(s) // outside the lock: builds a whole world
		} else {
			m.mu.Unlock()
		}
		<-s.ready
		m.mu.Lock()
		if s.err != nil {
			m.mu.Unlock()
			return nil, nil, s.err
		}
		if m.sessions[name] != s {
			// Reaped (or failed and removed) between spawn and attach:
			// go around and spawn a fresh one.
			m.mu.Unlock()
			continue
		}
		if st, reason := s.st, s.reason; st != stateActive {
			m.mu.Unlock()
			if st == stateCrashed {
				return nil, nil, fmt.Errorf("%w: %s (%s)", ErrCrashed, name, reason)
			}
			return nil, nil, fmt.Errorf("sessiond: session %s is %s", name, st)
		}
		s.attached++
		s.lastUsed = time.Now()
		m.cAttaches.Inc()
		fs := s.w.FS
		m.mu.Unlock()
		m.bus.Publish(0, "attach", name)
		detach := func() {
			m.mu.Lock()
			s.attached--
			s.lastUsed = time.Now()
			m.mu.Unlock()
			m.cDetaches.Inc()
			m.bus.Publish(0, "detach", name)
		}
		return fs, detach, nil
	}
}

// spawn builds the session outside the Manager lock and publishes the
// result through s.ready. On failure the placeholder is removed so a
// later attach can retry.
func (m *Manager) spawn(s *session) {
	w, jw, lock, err := m.build(s.name)
	m.mu.Lock()
	if err != nil {
		s.err = err
		delete(m.sessions, s.name)
	} else {
		s.w, s.jw, s.lock = w, jw, lock
		s.lastUsed = time.Now()
		m.cSpawns.Inc()
	}
	m.mu.Unlock()
	close(s.ready)
	if err != nil {
		m.bus.Publish(0, "spawn-failed", s.name+": "+err.Error())
	} else {
		m.bus.Publish(0, "spawn", s.name)
	}
	// The attach checkpoint may have degraded the writer before the
	// session was published, in which case OnError's markCrashed found
	// no session to mark. Re-check now that it is visible.
	if err == nil && jw != nil {
		if jerr := jw.Err(); jerr != nil {
			m.markCrashed(s.name, fmt.Sprintf("journal: %v", jerr))
		}
	}
}

// build assembles one session: world, limits, journal (lock, recovery,
// writer), crash hooks, and the sessions-table file.
func (m *Manager) build(name string) (*world.World, *journal.Writer, *journal.DirLock, error) {
	w, err := m.cfg.Build(name, m.cfg.Width, m.cfg.Height)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sessiond: build %s: %w", name, err)
	}
	h := w.Help
	h.SetLimits(core.Limits{
		MaxBytes:    m.cfg.MaxSessionBytes,
		MaxResident: m.cfg.MaxResident,
	})
	// The daemon-wide budget gates: consulted under this session's
	// actor lock, they take the Manager lock and sum every session's
	// lock-free counters — the sanctioned lock order.
	h.SetMemGate(m.memGate)
	h.SetProcGate(m.procGate)

	var jw *journal.Writer
	var lock *journal.DirLock
	if m.cfg.JournalRoot != "" || m.cfg.JournalFS != nil {
		jfs, err := m.journalFS(name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sessiond: journal %s: %w", name, err)
		}
		lock, err = journal.AcquireLock(jfs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sessiond: journal %s: %w", name, err)
		}
		if hasCheckpoint(jfs) {
			if _, err := core.RecoverSession(h, jfs); err != nil {
				lock.Release()
				return nil, nil, nil, fmt.Errorf("sessiond: recover %s: %w", name, err)
			}
		}
		jw, err = journal.Open(jfs, journal.Config{Fsync: m.cfg.Fsync})
		if err != nil {
			lock.Release()
			return nil, nil, nil, fmt.Errorf("sessiond: journal %s: %w", name, err)
		}
		jw.OnError = func(err error) {
			// The writer is degraded: ops are being dropped, so the
			// session's durability story is over. Contain it.
			h.ReportFault("journal (degraded)", err)
			m.markCrashed(name, fmt.Sprintf("journal: %v", err))
		}
		h.AttachJournal(jw, 0)
	}

	// A recovered panic inside the session's actor: the core has
	// already flushed the journal and written a crash report; the
	// manager's job is the table update and killing leftover work.
	// OnCrash runs under the session's actor lock, which may be taken
	// before the Manager lock (never the reverse).
	h.OnCrash = func(where string, err error) {
		m.markCrashed(name, fmt.Sprintf("%s: %v", where, err))
	}

	// The session's own events feed the daemon-level stream, prefixed
	// "<session>/<window>" so one aggregated log covers every hosted
	// session. Trace events stay local — every span forwarded from every
	// session would drown the lifecycle signal. The tap runs outside the
	// session bus's lock and the daemon bus never calls back into a
	// session, so the session-actor -> daemon-bus lock order is safe.
	h.Notify.SetTap(func(ev notify.Event) {
		if ev.Kind == "trace" {
			return
		}
		m.bus.Publish(0, ev.Kind, fmt.Sprintf("%s/%d %s", name, ev.Window, ev.Detail))
	})

	// Every session reads the shared table at /mnt/help/sessions and
	// the daemon-level event stream at /mnt/help/daemonlog. The table
	// device computes its content under the reading session's actor
	// lock, then the Manager lock — the sanctioned order — touching
	// other sessions only through lock-free counters.
	cleanup := func() {
		if jw != nil {
			jw.Close()
		}
		lock.Release()
	}
	if err := h.FS.RegisterDevice(world.MountRoot+"/sessions", tableDevice{m}); err != nil {
		cleanup()
		return nil, nil, nil, fmt.Errorf("sessiond: %s: %w", name, err)
	}
	if err := h.FS.RegisterDevice(world.MountRoot+"/daemonlog", notify.Device{Bus: m.bus}); err != nil {
		cleanup()
		return nil, nil, nil, fmt.Errorf("sessiond: %s: %w", name, err)
	}
	// The session's /mnt/help/stats serves that session's own registry,
	// but the budget governor and the wire's backpressure counters live
	// on the Manager's — overlay the file so the documented
	// daemon.budget.* and srvnet.backpressure.* lines show up beside
	// the session's, one stats file for the operator.
	if r := m.cfg.Obs; r != nil && r != h.Obs {
		if err := h.FS.RegisterDevice(world.MountRoot+"/stats", statsDevice{sess: h.Obs, daemon: r}); err != nil {
			cleanup()
			return nil, nil, nil, fmt.Errorf("sessiond: %s: %w", name, err)
		}
	}
	return w, jw, lock, nil
}

// Bus exposes the daemon-level event stream, the same one
// /mnt/help/daemonlog serves: hosts embed it (a monitoring window, an
// operator tail) and tests subscribe to assert lifecycle coverage.
func (m *Manager) Bus() *notify.Bus { return m.bus }

func (m *Manager) journalFS(name string) (journal.Fsys, error) {
	if m.cfg.JournalFS != nil {
		return m.cfg.JournalFS(name)
	}
	return journal.DirFS(filepath.Join(m.cfg.JournalRoot, name))
}

// hasCheckpoint reports whether the journal directory holds a
// checkpoint to recover from; a fresh directory does not, and
// RecoverSession would refuse it.
func hasCheckpoint(fsys journal.Fsys) bool {
	names, err := fsys.List()
	if err != nil {
		return false
	}
	for _, n := range names {
		if n == "checkpoint" {
			return true
		}
	}
	return false
}

// markCrashed moves a session to crashed and kills its remaining work.
// Callable from under the crashed session's own actor lock (OnCrash),
// so the kill happens on a fresh goroutine.
func (m *Manager) markCrashed(name, reason string) {
	m.mu.Lock()
	s := m.sessions[name]
	if s == nil || s.w == nil || s.st != stateActive {
		m.mu.Unlock()
		return
	}
	s.st = stateCrashed
	s.reason = reason
	h := s.w.Help
	m.mu.Unlock()
	m.cCrashes.Inc()
	m.bus.Publish(0, "crash", name+": "+reason)
	go h.KillAll()
}

// CrashSession marks a session crashed from outside (an operator, a
// watchdog). It reports whether the session existed and was active.
func (m *Manager) CrashSession(name, reason string) bool {
	m.mu.Lock()
	s := m.sessions[name]
	active := s != nil && s.w != nil && s.st == stateActive
	m.mu.Unlock()
	if active {
		m.markCrashed(name, reason)
	}
	return active
}

// SessionCount reports live (non-closed) sessions.
func (m *Manager) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Attached reports the attachment count of a session, -1 if absent.
func (m *Manager) Attached(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sessions[name]; ok {
		return s.attached
	}
	return -1
}

// TableText renders the session table, one line per session:
//
//	name state attached windows procs age idle [reason]
//
// sorted by name. It is what /mnt/help/sessions serves.
func (m *Manager) TableText() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.sessions))
	for n := range m.sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	now := time.Now()
	for _, n := range names {
		s := m.sessions[n]
		if s.w == nil {
			fmt.Fprintf(&b, "%s spawning\n", n)
			continue
		}
		h := s.w.Help
		fmt.Fprintf(&b, "%s %s attached=%d windows=%d procs=%d age=%s idle=%s",
			n, s.st, s.attached, h.WindowCount(), h.ProcCount(),
			now.Sub(s.born).Round(time.Second), now.Sub(s.lastUsed).Round(time.Second))
		if s.reason != "" {
			fmt.Fprintf(&b, " reason=%q", s.reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// reaper closes sessions nobody has touched for TTL.
func (m *Manager) reaper() {
	defer close(m.reaperDone)
	tick := m.cfg.TTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.reaperStop:
			return
		case <-t.C:
			m.ReapIdle()
		}
	}
}

// ReapIdle closes every session that is unattached and idle past TTL,
// returning how many were reaped. Exported so tests (and an operator
// through a ctl file) can force a pass without waiting for the ticker.
func (m *Manager) ReapIdle() int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-m.cfg.TTL)
	m.mu.Lock()
	var victims []*session
	for _, s := range m.sessions {
		if s.w != nil && s.attached == 0 && s.lastUsed.Before(cutoff) {
			victims = append(victims, s)
			delete(m.sessions, s.name)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		m.closeSession(s, 2*time.Second)
		m.cReaps.Inc()
		m.bus.Publish(0, "reap", s.name)
	}
	return len(victims)
}

// closeSession retires one session: kill its work, wait briefly for
// quiescence, checkpoint and flush its journal, release its lock. Must
// not be called with the Manager lock held.
func (m *Manager) closeSession(s *session, wait time.Duration) {
	h := s.w.Help
	h.KillAll()
	h.WaitIdleFor(wait)
	// SyncJournal sweeps, checkpoints, and flushes; on a crashed
	// session the writer may be degraded — the error is already
	// reported, nothing more to do with it here.
	h.SyncJournal()
	if s.jw != nil {
		s.jw.Close()
	}
	s.lock.Release()
	m.mu.Lock()
	s.st = stateClosed
	m.mu.Unlock()
	m.bus.Publish(0, "close", s.name)
}

// Drain is the bounded graceful shutdown: new attaches are refused
// with ErrDraining, the reaper stops, and every session is closed in
// parallel — commands killed, journals checkpointed, flushed, and
// unlocked — within ctx's budget. When ctx expires first, ctx.Err() is
// returned; sessions already closed stayed closed, and the rest have
// at least had their work killed.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	var all []*session
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	m.bus.Publish(0, "drain", fmt.Sprintf("%d sessions", len(all)))

	if m.reaperStop != nil {
		close(m.reaperStop)
		<-m.reaperDone
	}

	wait := 2 * time.Second
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl) / 2; d < wait {
			wait = d
		}
	}
	var wg sync.WaitGroup
	for _, s := range all {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			<-s.ready
			if s.err != nil {
				return
			}
			m.closeSession(s, wait)
		}(s)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tableDevice serves the Manager's table as a read-only file, contents
// computed at open.
type tableDevice struct{ m *Manager }

func (d tableDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	return &tableHandle{content: d.m.TableText()}, nil
}

// statsDevice overlays a hosted session's /mnt/help/stats with the
// daemon's instruments: the session registry's lines followed by the
// Manager registry's (daemon.budget.*, srvnet.backpressure.*, the mux
// listener's srvnet.* totals), contents computed at open like the
// table.
type statsDevice struct{ sess, daemon *obs.Registry }

func (d statsDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	var text string
	if d.sess != nil {
		text = d.sess.StatsText()
	}
	return &tableHandle{content: text + d.daemon.StatsText()}, nil
}

type tableHandle struct{ content string }

func (h *tableHandle) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(h.content)) {
		return 0, io.EOF
	}
	n := copy(p, h.content[off:])
	if int(off)+n == len(h.content) {
		return n, io.EOF
	}
	return n, nil
}

func (h *tableHandle) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("sessiond: sessions table is read-only: %w", vfs.ErrPerm)
}

func (h *tableHandle) Close() error { return nil }
