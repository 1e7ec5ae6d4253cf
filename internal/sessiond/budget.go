package sessiond

import (
	"fmt"
	"time"

	"repro/internal/vfs"
)

// The daemon-wide budget governor. One process hosts many sessions, and
// the per-session limits (MaxProcs, MaxBytes) only bound each tenant in
// isolation: a thousand polite sessions can still exhaust the machine.
// The governor bounds the totals — resident buffer bytes and live
// commands summed across every hosted session — and refuses admission
// with a typed vfs.BusyError carrying a retry-after hint, so clients
// back off instead of redialing into the same wall.
//
// Totals are summed under the Manager lock from each session's
// lock-free atomics (Help.MemBytes, Help.ProcCount), honoring the lock
// order: gates run under the calling session's actor lock, which may
// take the Manager lock, never the reverse.

// DefaultRetryAfter is the retry hint stamped on budget refusals when
// Config.RetryAfter is zero.
const DefaultRetryAfter = 250 * time.Millisecond

func (m *Manager) retryAfter() time.Duration {
	if m.cfg.RetryAfter > 0 {
		return m.cfg.RetryAfter
	}
	return DefaultRetryAfter
}

// busy builds the typed refusal every budget check returns: it wraps
// vfs.ErrBusy (so srvnet maps it to the busy wire code) and carries the
// daemon's retry-after hint (so the wire stamps response.Retry and
// ReconnectingClient waits that long instead of hammering).
func (m *Manager) busy(msg string) error {
	return &vfs.BusyError{Msg: msg, After: m.retryAfter()}
}

// memBytesLocked sums resident buffer bytes across live sessions.
// Caller holds m.mu; reads only lock-free session atomics.
func (m *Manager) memBytesLocked() int64 {
	var total int64
	for _, s := range m.sessions {
		if s.w != nil && s.st != stateClosed {
			total += s.w.Help.MemBytes()
		}
	}
	return total
}

// totalProcsLocked sums live external commands across live sessions.
// Caller holds m.mu; reads only lock-free session atomics.
func (m *Manager) totalProcsLocked() int {
	total := 0
	for _, s := range m.sessions {
		if s.w != nil && s.st != stateClosed {
			total += s.w.Help.ProcCount()
		}
	}
	return total
}

// MemBytes reports the daemon's total resident buffer bytes, summed
// across sessions. It is the daemon.budget.bytes gauge.
func (m *Manager) MemBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.memBytesLocked()
}

// TotalProcs reports the daemon's total live external commands. It is
// the daemon.budget.procs gauge.
func (m *Manager) TotalProcs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalProcsLocked()
}

// memGate is installed into every hosted session via core.SetMemGate:
// consulted (with the projected resident-byte increase) before a large
// body load, under that session's actor lock. Refusals count
// daemon.budget.refused.mem and publish a "limit" event on the daemon
// bus.
func (m *Manager) memGate(addBytes int64) error {
	if m.cfg.MaxBytes <= 0 {
		return nil
	}
	m.mu.Lock()
	total := m.memBytesLocked()
	m.mu.Unlock()
	if total+addBytes > m.cfg.MaxBytes {
		m.cMemRefused.Inc()
		m.bus.Publish(0, "limit", fmt.Sprintf("daemon memory budget: %d+%d > %d bytes", total, addBytes, m.cfg.MaxBytes))
		return m.busy(fmt.Sprintf("sessiond: daemon memory budget (%d bytes) spent", m.cfg.MaxBytes))
	}
	return nil
}

// procGate is installed into every hosted session via core.SetProcGate:
// consulted after the per-session MaxProcs bound, before launching a
// command. Refusals count daemon.budget.refused.proc and publish a
// "limit" event on the daemon bus.
func (m *Manager) procGate() error {
	if m.cfg.MaxTotalProcs <= 0 {
		return nil
	}
	m.mu.Lock()
	total := m.totalProcsLocked()
	m.mu.Unlock()
	if total >= m.cfg.MaxTotalProcs {
		m.cProcRefused.Inc()
		m.bus.Publish(0, "limit", fmt.Sprintf("daemon command budget: %d live, max %d", total, m.cfg.MaxTotalProcs))
		return m.busy(fmt.Sprintf("sessiond: daemon command budget (%d live) spent", m.cfg.MaxTotalProcs))
	}
	return nil
}

// admitSpawnLocked is the admission check for creating a brand-new
// session (first attach). Attaching to an existing session is always
// admitted — the world is already resident — but a spawn allocates a
// whole new world, so it is refused while the daemon's memory budget is
// already spent. Caller holds m.mu.
func (m *Manager) admitSpawnLocked() error {
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.cAttachRefused.Inc()
		return fmt.Errorf("%w (%d live)", ErrMaxSessions, len(m.sessions))
	}
	if m.cfg.MaxBytes > 0 && m.memBytesLocked() >= m.cfg.MaxBytes {
		m.cAttachRefused.Inc()
		return m.busy(fmt.Sprintf("sessiond: daemon memory budget (%d bytes) spent, refusing new session", m.cfg.MaxBytes))
	}
	return nil
}
