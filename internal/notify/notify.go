// Package notify is the event bus behind the session's event files. It
// inverts the polling the paper's tools rely on (the mail watcher stats
// a mailbox on a timer; stf re-reads directories) into blocking reads:
// the core actor publishes one event per observable state change, and
// readers — /mnt/help/<n>/event, /mnt/help/log, the srvnet readwait op,
// the Watch built-in — park until something happens.
//
// The cardinal rule is that a slow reader can never block the core
// actor. Publish never waits: it writes the event into the bus's one
// bounded history ring, the only place events are kept, and wakes the
// readers it concerns. A subscriber is a cursor into that ring — the
// next seq it has not read — so a reader that remembers the last seq it
// saw resumes from there with nothing duplicated. A reader the ring has
// lapped sees one synthesized "gap" event counting the events it lost,
// then the retained tail, so it knows to resync. The obs registry's
// spans arrive through Sink, so the history is also the session's only
// store of trace spans, the one /mnt/help/trace is rendered from.
//
// Events are one line each on the wire: "<seq> <window> <kind> <detail>".
// Seq is a bus-wide monotonic counter (never 0 for a real event), window
// is the help window concerned (0 for session-wide events), kind is a
// single word, detail free text to end of line.
package notify

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Event is one bus event. Seq 0 marks a synthesized event (a gap
// marker), never a published one.
type Event struct {
	Seq    uint64
	Window int
	Kind   string
	Detail string
}

// KindGap is the kind of the synthesized discontinuity marker a reader
// sees after the bus history lapped its cursor: its detail is
// "<n> missed", n counting the bus events it lost. A reader that
// needs coherent state re-reads it from the files and resumes from the
// seqs that follow.
const KindGap = "gap"

// Line renders the event in its one-line wire form, without a newline.
func (e Event) Line() string {
	if e.Detail == "" {
		return fmt.Sprintf("%d %d %s", e.Seq, e.Window, e.Kind)
	}
	return fmt.Sprintf("%d %d %s %s", e.Seq, e.Window, e.Kind, e.Detail)
}

// ParseLine parses the wire form back into an Event. The second result
// is false if the line is not an event line.
func ParseLine(line string) (Event, bool) {
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 4)
	if len(parts) < 3 {
		return Event{}, false
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Event{}, false
	}
	win, err := strconv.Atoi(parts[1])
	if err != nil {
		return Event{}, false
	}
	ev := Event{Seq: seq, Window: win, Kind: parts[2]}
	if len(parts) == 4 {
		ev.Detail = parts[3]
	}
	return ev, true
}

// Errors returned by blocking reads.
var (
	// ErrClosed means the subscription was closed under the reader.
	ErrClosed = errors.New("notify: subscription closed")
	// ErrTimeout means the wait deadline passed with no event; for a
	// long poll this is the normal empty result.
	ErrTimeout = errors.New("notify: wait timed out")
	// ErrStopped means the caller's stop channel closed (connection
	// went away, handle closed).
	ErrStopped = errors.New("notify: wait stopped")
)

// DefaultHistory is the bus's resume window: how many recent events
// survive for slow and late readers to read.
const DefaultHistory = 512

// readBatch caps the events one ReadSince returns; the rest wait for
// the reader's next call.
const readBatch = 256

// Bus is the event bus: one per session (plus one daemon-level bus in
// sessiond). All methods are safe for concurrent use; Publish never
// blocks on readers.
type Bus struct {
	mu   sync.Mutex
	seq  uint64
	hist []Event // ring of the last len(hist) events, indexed by seq
	subs map[*Sub]struct{}
	tap  func(Event)

	// armed flips true on the first Subscribe or SetTap and never
	// resets: before anyone has ever listened, publishers may skip
	// building expensive detail strings (see Armed), so a session
	// nobody watches pays nothing for the event layer.
	armed atomic.Bool

	cPublished *obs.Counter
	cDropped   *obs.Counter
	cWaits     *obs.Counter
}

// New returns a Bus with the default history capacity.
func New() *Bus { return NewSized(DefaultHistory) }

// NewSized returns a Bus whose resume history holds hist events.
func NewSized(hist int) *Bus {
	if hist < 1 {
		hist = 1
	}
	return &Bus{
		hist: make([]Event, hist),
		subs: map[*Sub]struct{}{},
	}
}

// SetObs installs bus counters on r: notify.published, notify.dropped
// (events lapped readers lost), notify.waits (blocking reads entered), and
// the notify.subs gauge. Nil removes them.
func (b *Bus) SetObs(r *obs.Registry) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if r == nil {
		b.cPublished, b.cDropped, b.cWaits = nil, nil, nil
		return
	}
	b.cPublished = r.Counter("notify.published")
	b.cDropped = r.Counter("notify.dropped")
	b.cWaits = r.Counter("notify.waits")
	r.Gauge("notify.subs", func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return int64(len(b.subs))
	})
}

// SetTap installs a function called once per published event, after
// delivery, outside the bus lock (nil removes it). sessiond uses it to
// aggregate per-session buses into the daemon-level stream; the tap
// must not block and must not publish back into this bus.
func (b *Bus) SetTap(fn func(Event)) {
	b.mu.Lock()
	b.tap = fn
	b.mu.Unlock()
	if fn != nil {
		b.armed.Store(true)
	}
}

// Armed reports whether anyone has ever subscribed (or tapped) this
// bus. Publishers of events with costly-to-format details may publish
// them with an empty detail while unarmed — the seq/window/kind
// skeleton is still recorded for resume — and consumers must treat a
// detail-less event conservatively (a body event with no generation
// means "assume stale"). Once armed, always armed: there is no race
// where a new subscriber sees half-formatted live events.
func (b *Bus) Armed() bool {
	return b != nil && b.armed.Load()
}

// Publish appends one event to the bus history, overwriting the oldest,
// wakes the subscribers it concerns, and returns its seq. It never
// blocks: a reader too slow to keep up is lapped, not waited for.
func (b *Bus) Publish(win int, kind, detail string) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	b.seq++
	ev := Event{Seq: b.seq, Window: win, Kind: kind, Detail: detail}
	*b.slot(ev.Seq) = ev
	for s := range b.subs {
		if s.win <= 0 || s.win == win {
			s.signal()
		}
	}
	tap := b.tap
	b.mu.Unlock()
	b.cPublished.Inc()
	if tap != nil {
		tap(ev)
	}
	return ev.Seq
}

// Seq returns the seq of the most recently published event (0 if none
// yet): the resume point for a subscriber that wants only the future.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// slot is the history entry for seq. Caller holds b.mu.
func (b *Bus) slot(seq uint64) *Event {
	return &b.hist[(seq-1)%uint64(len(b.hist))]
}

// oldestLocked is the seq of the oldest event still in history; 0 when
// the bus has published nothing.
func (b *Bus) oldestLocked() uint64 {
	if b.seq <= uint64(len(b.hist)) {
		return min(b.seq, 1)
	}
	return b.seq - uint64(len(b.hist)) + 1
}

// History returns the events still in the bus history, oldest first.
// It does not arm the bus.
func (b *Bus) History() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	oldest := b.oldestLocked()
	if oldest == 0 {
		return nil
	}
	evs := make([]Event, 0, b.seq-oldest+1)
	for q := oldest; q <= b.seq; q++ {
		evs = append(evs, *b.slot(q))
	}
	return evs
}

// Subscribe registers a reader. win > 0 filters to that window's events;
// win <= 0 sees everything. since is the last seq the reader has already
// seen: 0 (or a seq past the end) means "from now", anything else reads
// on from the bus history, starting with a gap marker if the history
// has already been overwritten past it.
func (b *Bus) Subscribe(win int, since uint64) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed.Store(true)
	if since == 0 || since > b.seq {
		since = b.seq
	}
	s := &Sub{b: b, win: win, next: since + 1, wake: make(chan struct{}, 1)}
	b.subs[s] = struct{}{}
	return s
}

// ReadSince is the long-poll primitive srvnet's readwait op and the
// event devices build on: collect the events after seq since (0 = from
// now), blocking until at least one arrives, stop closes, or timeout
// expires. It returns at most readBatch events plus the seq to resume
// from next time. A timeout returns an empty batch and no error — the
// normal empty poll; the returned seq is still valid to resume from.
func (b *Bus) ReadSince(win int, since uint64, stop <-chan struct{}, timeout time.Duration) ([]Event, uint64, error) {
	s := b.Subscribe(win, since)
	defer s.Close()
	first, err := s.Next(stop, timeout)
	if err != nil {
		if err == ErrTimeout {
			err = nil
		}
		return nil, s.next - 1, err
	}
	evs := append(make([]Event, 0, 8), first)
	for len(evs) < readBatch {
		ev, ok := s.TryNext()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	return evs, s.next - 1, nil
}

// Sub is one subscription: a cursor into the bus history. next and
// closed are guarded by the bus lock; only the reading goroutine moves
// next, so it may read it unlocked.
type Sub struct {
	b      *Bus
	win    int
	next   uint64 // seq of the next event to read
	closed bool
	wake   chan struct{} // capacity 1: a wake token, not a queue
}

// signal leaves a wake token for a parked Next, if none is pending.
func (s *Sub) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// tryNext reads the next event for this subscription from the history,
// skipping other windows' events. A cursor the history has lapped
// jumps to the oldest retained event and reports the loss as one gap
// marker first.
func (s *Sub) tryNext() (Event, bool, error) {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return Event{}, false, ErrClosed
	}
	if oldest := b.oldestLocked(); s.next < oldest {
		n := oldest - s.next
		s.next = oldest
		b.cDropped.Add(int64(n))
		return Event{Kind: KindGap, Detail: strconv.FormatUint(n, 10) + " missed"}, true, nil
	}
	for s.next <= b.seq {
		ev := *b.slot(s.next)
		s.next++
		if s.win <= 0 || ev.Window == s.win {
			return ev, true, nil
		}
	}
	return Event{}, false, nil
}

// TryNext returns the next unread event without blocking.
func (s *Sub) TryNext() (Event, bool) {
	ev, ok, _ := s.tryNext()
	return ev, ok
}

// Next blocks until an event is available and returns it. It unblocks
// with ErrStopped when stop closes, ErrTimeout when timeout (if > 0)
// expires, and ErrClosed when the subscription is closed under it.
func (s *Sub) Next(stop <-chan struct{}, timeout time.Duration) (Event, error) {
	s.b.cWaits.Inc()
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tc = t.C
	}
	for {
		ev, ok, err := s.tryNext()
		if err != nil {
			return Event{}, err
		}
		if ok {
			return ev, nil
		}
		select {
		case <-s.wake:
		case <-stop: // nil stop blocks forever, as intended
			return Event{}, ErrStopped
		case <-tc:
			return Event{}, ErrTimeout
		}
	}
}

// Close unregisters the subscription and unblocks any parked Next.
func (s *Sub) Close() {
	s.b.mu.Lock()
	if s.closed {
		s.b.mu.Unlock()
		return
	}
	s.closed = true
	delete(s.b.subs, s)
	s.b.mu.Unlock()
	s.signal()
}

// Sink returns the span sink (see obs.Registry.SetSink) that makes the
// bus the only store of the registry's trace spans and fault events:
// every span becomes a window-0 "trace" event whose detail is
// "<name> <dur>us <attrs>", streamed to readers alongside state changes
// and kept in the history that /mnt/help/trace is rendered from.
func (b *Bus) Sink() func(obs.Span) {
	return func(sp obs.Span) {
		detail := sp.Name + " " + strconv.FormatInt(sp.Dur.Microseconds(), 10) + "us"
		if sp.Attrs != "" {
			detail += " " + sp.Attrs
		}
		b.Publish(0, "trace", detail)
	}
}
