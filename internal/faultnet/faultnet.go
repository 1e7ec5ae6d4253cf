// Package faultnet wraps net.Conn and net.Listener with scripted fault
// injection, so tests can prove how a protocol behaves on a bad network
// without a bad network. The paper's Discussion imagines help making "an
// invisible call to the CPU server"; the call is only invisible if the
// file protocol survives dropped frames, stalls, and half-written
// responses. This package makes those failures reproducible.
//
// A Script is an ordered set of Faults, each naming the operation
// ("read" or "write"), the index of the operation to sabotage, and the
// Kind of sabotage. Scripts can be written by hand for targeted tests or
// derived deterministically from a seed with Generate for matrix tests.
// Every fault fires exactly once; the connection otherwise behaves like
// the one it wraps.
package faultnet

import (
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Kind enumerates the sabotage a Fault applies.
type Kind int

const (
	// Drop swallows the data: a write reports success without sending;
	// a read discards one buffer of received data and reads again.
	Drop Kind = iota
	// Stall blocks the operation until the connection's deadline passes
	// or the connection is closed.
	Stall
	// Partial delivers only a prefix (half a write, one byte of a read)
	// and then closes the connection — a close-mid-response.
	Partial
	// Corrupt flips the first byte of the frame before delivery,
	// guaranteeing the receiver sees a malformed frame.
	Corrupt
	// Close closes the connection before the operation happens.
	Close
)

// String names the kind for test output.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case Partial:
		return "partial"
	case Corrupt:
		return "corrupt"
	case Close:
		return "close"
	}
	return "unknown"
}

// Fault is one scripted failure: the After'th operation matching Op
// misbehaves per Kind. Op is "read", "write", or "" for either (counted
// over all operations).
type Fault struct {
	Op    string
	After int
	Kind  Kind
}

// Script is a consumable fault plan for one connection. It is safe for
// concurrent use by the connection's reader and writer.
type Script struct {
	mu     sync.Mutex
	faults []Fault
	used   []bool
	reads  int
	writes int
	total  int
	fired  int
}

// NewScript returns a script applying the given faults in order.
func NewScript(faults ...Fault) *Script {
	return &Script{faults: faults, used: make([]bool, len(faults))}
}

// Generate derives a pseudo-random script from seed: n faults spread
// over the first span operations of a connection. The same seed always
// yields the same script.
func Generate(seed int64, n, span int) *Script {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{Drop, Stall, Partial, Corrupt, Close}
	ops := []string{"read", "write"}
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{
			Op:    ops[rng.Intn(len(ops))],
			After: rng.Intn(span),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
	}
	return NewScript(faults...)
}

// Fired reports how many faults have triggered so far.
func (s *Script) Fired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Faults returns a copy of the script's fault list, fired or not.
func (s *Script) Faults() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Fault(nil), s.faults...)
}

// next consumes and returns the fault to apply to this operation, if any.
func (s *Script) next(op string) (Fault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	switch op {
	case "read":
		n = s.reads
		s.reads++
	case "write":
		n = s.writes
		s.writes++
	}
	total := s.total
	s.total++
	for i, f := range s.faults {
		if s.used[i] {
			continue
		}
		if (f.Op == op && f.After == n) || (f.Op == "" && f.After == total) {
			s.used[i] = true
			s.fired++
			return f, true
		}
	}
	return Fault{}, false
}

// Conn wraps a net.Conn, applying the script's faults to its reads and
// writes. Stalls honor deadlines set through SetDeadline and friends.
type Conn struct {
	inner  net.Conn
	script *Script

	closed    chan struct{}
	closeOnce sync.Once

	mu sync.Mutex // guards the recorded deadlines
	rd time.Time
	wd time.Time
}

// WrapConn applies script to c. A nil script injects nothing.
func WrapConn(c net.Conn, script *Script) *Conn {
	if script == nil {
		script = NewScript()
	}
	return &Conn{inner: c, script: script, closed: make(chan struct{})}
}

// Read applies any scripted read fault, then reads from the wrapped
// connection.
func (c *Conn) Read(p []byte) (int, error) {
	if f, ok := c.script.next("read"); ok {
		switch f.Kind {
		case Stall:
			return 0, c.stall(c.deadline(false))
		case Close:
			c.Close()
			return 0, net.ErrClosed
		case Corrupt:
			n, err := c.inner.Read(p)
			corrupt(p[:n])
			return n, err
		case Partial:
			if len(p) > 1 {
				p = p[:1]
			}
			n, err := c.inner.Read(p)
			c.Close()
			return n, err
		case Drop:
			buf := make([]byte, 4096)
			if _, err := c.inner.Read(buf); err != nil {
				return 0, err
			}
			return c.inner.Read(p)
		}
	}
	return c.inner.Read(p)
}

// Write applies any scripted write fault, then writes to the wrapped
// connection.
func (c *Conn) Write(p []byte) (int, error) {
	if f, ok := c.script.next("write"); ok {
		switch f.Kind {
		case Drop:
			return len(p), nil
		case Stall:
			return 0, c.stall(c.deadline(true))
		case Partial:
			n, _ := c.inner.Write(p[:(len(p)+1)/2])
			c.Close()
			return n, net.ErrClosed
		case Corrupt:
			q := append([]byte(nil), p...)
			corrupt(q)
			return c.inner.Write(q)
		case Close:
			c.Close()
			return 0, net.ErrClosed
		}
	}
	return c.inner.Write(p)
}

// corrupt flips every bit of the first byte. srvnet frames carry one
// CRC over the header and one over the string and payload, so wherever
// the byte falls the receiver reliably sees a malformed frame (rather
// than silently corrupted data).
func corrupt(p []byte) {
	if len(p) > 0 {
		p[0] ^= 0xff
	}
}

// stall blocks until the deadline passes or the connection closes.
func (c *Conn) stall(dl time.Time) error {
	var timer <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-timer:
		return os.ErrDeadlineExceeded
	}
}

// Close closes the wrapped connection and releases any stalled
// operations.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

func (c *Conn) deadline(write bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if write {
		return c.wd
	}
	return c.rd
}

// SetDeadline records and forwards both deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd, c.wd = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline records and forwards the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline records and forwards the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wd = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}

// LocalAddr returns the wrapped connection's local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the wrapped connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// Listener wraps a net.Listener so each accepted connection carries a
// fault script.
type Listener struct {
	net.Listener
	// NewScript supplies the script for the i'th accepted connection
	// (0-based). Nil function or nil script means a clean connection.
	NewScript func(i int) *Script

	mu sync.Mutex
	n  int
}

// WrapListener applies newScript to every connection l accepts.
func WrapListener(l net.Listener, newScript func(i int) *Script) *Listener {
	return &Listener{Listener: l, NewScript: newScript}
}

// Accept wraps the next accepted connection with its script.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	if l.NewScript == nil {
		return c, nil
	}
	s := l.NewScript(i)
	if s == nil {
		return c, nil
	}
	return WrapConn(c, s), nil
}
