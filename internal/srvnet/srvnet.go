// Package srvnet exports a vfs namespace over a network connection,
// simulating the multi-machine Plan 9 environment of the paper's
// Discussion: "help could run on the terminal and make an invisible call
// to the CPU server, sending requests to run applications to the remote
// shell-like process."
//
// The protocol is a minimal file service in the spirit of 9P. Every
// frame, in either direction, is one fixed-size binary header — op,
// status code, sequence number, generation, offset, count, a
// millisecond field and two CRCs — followed by one string (a path, glob
// pattern, session name or error text) and a raw payload; frame.go
// holds the layout and its one encoder and decoder. The call is only
// "invisible" if the wire path keeps up with the user interface, so the
// transport is built for throughput as well as fault tolerance:
//
//   - Requests are pipelined. The Client splits into a writer (callers
//     encode under a write mutex) and one dedicated reader goroutine
//     that matches replies to callers by sequence number, so any number
//     of requests can be in flight on one connection at once and replies
//     may arrive out of order. The Batch API queues several operations
//     and pushes them onto the wire in a single buffered write.
//   - The server decouples reading from execution: a per-connection
//     reader goroutine queues decoded requests (up to pipelineDepth)
//     while the executor runs earlier ones, and replies are coalesced
//     into batched flushes — the write buffer is only pushed to the
//     socket when the request queue momentarily drains.
//   - Every reply that names a target file piggybacks the file's edit
//     generation (vfs.Info.Gen, fed by text.Buffer.Gen for help
//     windows). A client-side cache keyed on those generations turns a
//     re-read of an unchanged file into a pure cache hit with zero wire
//     traffic; see Client.SetCache for the coherence rules.
//   - Sequential chunked reads ("readat") are served from a
//     per-connection readahead slot: a miss reads a window of the file
//     (raWindow) once, and later chunks slice it while the generation
//     holds and the window covers them.
//
// The transport is hardened end to end: the server bounds idle
// connections and response writes with deadlines, tracks every
// connection in a registry, replies with an explicit protocol error to
// malformed frames, and drains in-flight requests on Shutdown; error
// replies carry a machine-readable code so vfs sentinel errors survive
// the wire and errors.Is works remotely; the Client bounds each round
// trip with a deadline (a sane default applies when none is set) and a
// Close during an in-flight call closes the connection out of band so
// nothing waits behind a hung peer; ReconnectingClient (reconnect.go)
// adds automatic redial with capped, jittered exponential backoff for
// idempotent operations, degrading to a typed ErrDegraded instead of
// hanging when the remote side is gone.
//
// With a Server wrapped around the world's namespace, a Client on
// another machine can drive the entire user interface through
// /mnt/help — create windows, fill bodies, send control messages — with
// no code beyond file operations, exactly the paper's model.
package srvnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Typed protocol-level errors. Test with errors.Is.
var (
	// ErrProto marks a protocol violation: a malformed frame, sent or
	// received, an out-of-sequence response, or a reply whose payload
	// does not fit its request. A framing violation ends the
	// connection.
	ErrProto = errors.New("srvnet: protocol error")
	// ErrBusy is a transient server refusal: the connection registry,
	// the waiter budget, or a daemon resource budget is full. It wraps
	// vfs.ErrBusy so a refusal classifies the same on both sides of the
	// wire, and the reply may carry a retry-after hint (RetryAfter).
	ErrBusy = fmt.Errorf("srvnet: server busy: %w", vfs.ErrBusy)
	// ErrDraining is the reply once Shutdown has begun: the server is
	// deliberately going away, so clients should degrade immediately
	// instead of treating the condition as transient and redialing.
	ErrDraining = errors.New("srvnet: server draining")
	// ErrNoSession is the reply to an operation on a multiplexing server
	// before the connection has attached to a session.
	ErrNoSession = errors.New("srvnet: no session attached")
	// ErrClientClosed is returned by operations on a closed Client.
	ErrClientClosed = errors.New("srvnet: client closed")
)

// Server tuning defaults.
const (
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	DefaultMaxConns     = 64
	// DefaultRoundTrip bounds a Client round trip when the Timeout field
	// is left zero, so a dead peer fails the call instead of hanging it
	// forever.
	DefaultRoundTrip = 30 * time.Second
	// pipelineDepth is how many decoded requests may queue behind the
	// executor on one server connection before the reader blocks.
	pipelineDepth = 64
	// maxReadWait caps one readwait long poll server-side; together with
	// the idleTimeout/2 bound it keeps a parked subscriber's silence well
	// under the idle deadline, so the poll itself cannot look like a dead
	// peer.
	maxReadWait = 30 * time.Second
	// maxConnWaiters bounds parked readwait goroutines per connection; a
	// readwait beyond the cap is answered as an immediate poll instead of
	// parking, so a flooding client degrades to polling rather than
	// growing goroutines.
	maxConnWaiters = 16
	// DefaultMaxWaiters bounds parked readwait goroutines server-wide:
	// many clients each under their per-conn cap can still add up to
	// thousands of parked goroutines, so the server holds a global
	// budget too. Overflow degrades to an immediate poll, same as the
	// per-conn cap.
	DefaultMaxWaiters = 1024
	// DefaultRetryAfter is the retry-after hint a busy refusal carries
	// when the refusing budget did not name its own.
	DefaultRetryAfter = 250 * time.Millisecond
	// pushInvalFailureLimit bounds the consecutive readwait refusals the
	// push-invalidation watcher (StartPushInval) tolerates on a healthy
	// connection before concluding the feed is gone for good and
	// disabling the cache; retries back off exponentially from
	// pushInvalBackoff.
	pushInvalFailureLimit = 4
	pushInvalBackoff      = 25 * time.Millisecond
	// defaultReadChunk is the "readat" chunk size when the request
	// leaves Count zero.
	defaultReadChunk = 64 * 1024
	// wireBufSize sizes the bufio layers on both ends. Batched replies
	// only amortize syscalls if the writer can hold a pipeline window's
	// worth of frames before spilling; the stock 4 KiB buffer forces a
	// write every few 1 KiB payloads.
	wireBufSize = 64 * 1024
)

// codeErrs maps each error code to the sentinel it restores.
var codeErrs = [numCodes]error{
	codeNotExist: vfs.ErrNotExist,
	codeExist:    vfs.ErrExist,
	codeIsDir:    vfs.ErrIsDir,
	codeNotDir:   vfs.ErrNotDir,
	codePerm:     vfs.ErrPerm,
	codeBadMode:  vfs.ErrBadMode,
	codeProto:    ErrProto,
	codeBusy:     ErrBusy,
	codeDraining: ErrDraining,
	codeNoSess:   ErrNoSession,
}

// codeOf maps a server-side error to its wire code; codeErr if no
// sentinel applies.
func codeOf(err error) code {
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return codeNotExist
	case errors.Is(err, vfs.ErrExist):
		return codeExist
	case errors.Is(err, vfs.ErrIsDir):
		return codeIsDir
	case errors.Is(err, vfs.ErrNotDir):
		return codeNotDir
	case errors.Is(err, vfs.ErrPerm):
		return codePerm
	case errors.Is(err, vfs.ErrBadMode):
		return codeBadMode
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, vfs.ErrBusy):
		// ErrBusy wraps vfs.ErrBusy, so this covers both the wire
		// sentinel and typed budget refusals (vfs.BusyError).
		return codeBusy
	case errors.Is(err, ErrNoSession):
		return codeNoSess
	}
	return codeErr
}

// wireError reconstructs a remote error on the client: the message is
// the server's, Unwrap restores the sentinel named by the wire code,
// and retry keeps a busy reply's retry-after hint.
type wireError struct {
	msg   string
	base  error
	retry time.Duration
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.base }

// RetryAfter reports the server's retry-after hint (0: none), so
// vfs.RetryAfter works on remote refusals.
func (e *wireError) RetryAfter() time.Duration { return e.retry }

// errFromWire turns an error reply into a client-side error that keeps
// the remote message, the sentinel named by the wire code, and — on a
// busy refusal — the retry-after hint.
func errFromWire(resp *frame) error {
	if base := codeErrs[resp.Code]; base != nil {
		return &wireError{msg: resp.Str, base: base, retry: time.Duration(resp.MS) * time.Millisecond}
	}
	return errors.New(resp.Str)
}

// Hub resolves attach handshakes for a server that multiplexes many
// session namespaces over one listener (NewMuxServer). AttachSession
// returns the session's namespace and a detach function the server
// calls when the connection leaves the session (re-attach or close).
// The returned namespace must be safe for concurrent use on its own —
// the server does not serialize across sessions in mux mode — which a
// core.Help SafeFS already is.
type Hub interface {
	AttachSession(name string) (fs *vfs.FS, detach func(), err error)
}

// Server exports one namespace, or — with a Hub — one namespace per
// attached session. The zero-value timeouts and limits are replaced by
// the Default* constants; set the fields before Serve to override them.
type Server struct {
	fs  *vfs.FS
	hub Hub
	mu  sync.Mutex

	// IdleTimeout bounds how long a connection may sit between
	// requests before the server closes it.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write.
	WriteTimeout time.Duration
	// MaxConns bounds concurrently served connections; connections
	// beyond it receive an ErrBusy reply and are closed.
	MaxConns int
	// MaxWaiters bounds parked readwait goroutines across all
	// connections (DefaultMaxWaiters when zero; negative disables the
	// bound). A readwait beyond the budget is answered as an immediate
	// poll instead of parking.
	MaxWaiters int
	// RetryAfter is the retry-after hint stamped on busy refusals whose
	// cause carries no hint of its own (DefaultRetryAfter when zero).
	RetryAfter time.Duration
	// Obs, when set before Serve, records wire-path counters:
	// srvnet.readahead.hit / srvnet.readahead.miss for the sequential
	// read slot and srvnet.reply.batched for replies coalesced into a
	// later flush. Nil is a no-op.
	Obs *obs.Registry

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	wg        sync.WaitGroup
	// draining is set once, under connMu, when Shutdown begins. It is
	// atomic so the per-request checks read it without the lock.
	draining atomic.Bool

	// waiters counts parked readwait goroutines server-wide against
	// MaxWaiters; atomic so the readwait dispatch path takes no lock.
	waiters atomic.Int64
}

// NewServer wraps fs for serving. The mutex serializes all requests, so
// the namespace needs no locking of its own; anything else touching the
// same namespace concurrently must coordinate through Locker.
func NewServer(fs *vfs.FS) *Server {
	return &Server{
		fs:        fs,
		conns:     map[net.Conn]struct{}{},
		listeners: map[net.Listener]struct{}{},
	}
}

// NewMuxServer wraps a session hub for serving. Connections carry no
// namespace until they send an "attach" naming a session; the hub's
// namespaces serialize themselves, so requests on different sessions
// proceed in parallel.
func NewMuxServer(hub Hub) *Server {
	s := NewServer(nil)
	s.hub = hub
	return s
}

// Locker exposes the serialization lock so a host embedding the server
// (help's event loop) can take the same lock around its own namespace
// access.
func (s *Server) Locker() sync.Locker { return &s.mu }

func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return DefaultIdleTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return DefaultWriteTimeout
}

func (s *Server) maxConns() int {
	if s.MaxConns > 0 {
		return s.MaxConns
	}
	return DefaultMaxConns
}

func (s *Server) maxWaiters() int {
	if s.MaxWaiters > 0 {
		return s.MaxWaiters
	}
	if s.MaxWaiters < 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	return DefaultMaxWaiters
}

func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return DefaultRetryAfter
}

// retryHintMS resolves the retry-after hint (in wire milliseconds) for
// a busy refusal: the refusing budget's own hint when err carries one,
// the server default otherwise.
func (s *Server) retryHintMS(err error) uint32 {
	d := s.retryAfter()
	if hint, ok := vfs.RetryAfter(err); ok {
		d = hint
	}
	return uint32(min(max(d/time.Millisecond, 1), math.MaxUint32))
}

// errResp fills an error reply's wire fields, stamping busy refusals
// with their retry-after hint.
func (s *Server) errResp(err error) frame {
	resp := frame{Code: codeOf(err), Str: err.Error()}
	if resp.Code == codeBusy {
		resp.MS = s.retryHintMS(err)
	}
	return resp
}

// acquireWaiter reserves one slot of the server-wide waiter budget,
// reporting false when the budget is exhausted.
func (s *Server) acquireWaiter() bool {
	max := int64(s.maxWaiters())
	for {
		n := s.waiters.Load()
		if n >= max {
			return false
		}
		if s.waiters.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (s *Server) releaseWaiter() { s.waiters.Add(-1) }

// WaiterCount reports parked readwait goroutines server-wide.
func (s *Server) WaiterCount() int { return int(s.waiters.Load()) }

// register adds conn to the registry and reserves a goroutine slot. It
// reports false when the server is draining or full.
func (s *Server) register(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() || len(s.conns) >= s.maxConns() {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// unregister removes conn, closes it, and releases its slot.
func (s *Server) unregister(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	conn.Close()
	s.wg.Done()
}

// closeConns force-closes every live connection.
func (s *Server) closeConns() {
	s.connMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// ConnCount reports the number of live registered connections.
func (s *Server) ConnCount() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool { return s.draining.Load() }

// Serve accepts connections until the listener closes. When it does,
// Serve closes every connection it accepted and waits for their
// goroutines to finish before returning, so no goroutine outlives the
// listener.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.draining.Load() {
		s.connMu.Unlock()
		return ErrBusy
	}
	s.listeners[l] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, l)
		s.connMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			// A listener closed out from under us takes its connections
			// with it — but when Shutdown closed it, the drain owns the
			// connections: they are being nudged so each can hear a typed
			// draining reply before closing, and force-closing here would
			// race that reply away.
			if !s.isDraining() {
				s.closeConns()
			}
			s.wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// readItem is one unit from a connection's reader goroutine to its
// executor: either a decoded request or the error that ended reading.
type readItem struct {
	req frame
	err error
}

// ServeConn handles one connection until EOF, idle timeout, protocol
// error, or server shutdown. A connection the server cannot take on
// receives one typed refusal — busy when the registry is full, draining
// when Shutdown has begun — and is closed.
//
// The connection is served by two goroutines: this one executes
// requests and writes replies, while a reader goroutine keeps decoding
// ahead so up to pipelineDepth requests queue while earlier ones run.
// Replies are encoded into a write buffer that is flushed only when the
// request queue momentarily drains, so a pipelined burst is answered in
// a few large writes instead of one write per reply.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.register(conn) {
		refusal := frame{Code: codeBusy, Str: ErrBusy.Error(), MS: s.retryHintMS(nil)}
		if s.isDraining() {
			refusal = frame{Code: codeDraining, Str: ErrDraining.Error()}
		} else {
			s.Obs.Counter("srvnet.backpressure.refused.conn").Inc()
		}
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		writeFrame(conn, nil, &refusal)
		conn.Close()
		return
	}
	defer s.unregister(conn)
	// In mux mode the connection's namespace is chosen by its attach
	// handshake; detach runs when the connection leaves the session.
	fs := s.fs
	var detach func()
	defer func() {
		if detach != nil {
			detach()
		}
	}()

	reqCh := make(chan readItem, pipelineDepth)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	// connDead is set by the reader the moment the connection proves
	// gone (EOF, reset, idle timeout), strictly before the error item is
	// queued. Requests already sitting in reqCh behind that point belong
	// to a peer that can no longer hear the answer; the executor skips
	// them instead of burning namespace time on abandoned work.
	var connDead atomic.Bool
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(conn, wireBufSize)
		var req frame
		for {
			// The idle deadline bounds the gap between frames, so it only
			// needs re-arming when the next read will actually touch the
			// socket; buffered frames are the peer being anything but idle.
			if br.Buffered() == 0 {
				conn.SetReadDeadline(time.Now().Add(s.idleTimeout()))
				// The re-arm may have overwritten Shutdown's nudge (an
				// immediate deadline) if it landed just before; draining
				// is set before any nudge, so re-nudge here.
				if s.isDraining() {
					conn.SetReadDeadline(time.Now())
				}
			}
			if err := readFrame(br, &req, false); err != nil {
				var ne net.Error
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
					errors.Is(err, net.ErrClosed) || (errors.As(err, &ne) && ne.Timeout()) {
					connDead.Store(true)
				}
				select {
				case reqCh <- readItem{err: err}:
				case <-stop:
				}
				return
			}
			select {
			case reqCh <- readItem{req: req}:
			case <-stop:
				return
			}
		}
	}()
	// Join the reader — and any parked readwait goroutines, which the
	// stop close unblocks — before unregistering so no goroutine
	// outlives the Serve loop's wait.
	var waiters sync.WaitGroup
	defer func() {
		close(stop)
		waiters.Wait()
		conn.Close()
		<-readerDone
	}()

	bw := bufio.NewWriterSize(conn, wireBufSize)
	// wmu serializes the write buffer between this executor and the
	// readwait waiter goroutines, which deliver their replies whenever
	// their events arrive.
	var wmu sync.Mutex
	noteWriteErr := s.noteWriteErr
	flushLocked := func() error {
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		err := bw.Flush()
		noteWriteErr(err)
		return err
	}
	flush := func() error {
		wmu.Lock()
		defer wmu.Unlock()
		return flushLocked()
	}
	// reply buffers one response, deferring the socket write while more
	// requests are already queued: their replies will share the flush.
	// out is the executor's scratch frame and hdr its header buffer,
	// both reused across requests. The write buffer is bounded: framing
	// a response can spill it to the socket once it fills, so the write
	// deadline is armed before every frame, not just at flush — a
	// stalled peer fails the spill within the write timeout instead of
	// hanging the executor mid-frame forever.
	var out frame
	var hdr []byte
	emit := func() error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		var err error
		hdr, err = writeFrame(bw, hdr, &out)
		noteWriteErr(err)
		return err
	}
	reply := func() error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		var err error
		if hdr, err = writeFrame(bw, hdr, &out); err != nil {
			noteWriteErr(err)
			return err
		}
		if len(reqCh) > 0 {
			s.Obs.Counter("srvnet.reply.batched").Inc()
			return nil
		}
		return flushLocked()
	}

	// A readwait's path resolution must synchronize with whoever else
	// mutates the namespace (the wait itself parks outside any lock,
	// per the vfs.WaitDevice contract). A served fs that is already a
	// serialized view — the world export over the actor lock, a
	// mux-mode hub namespace — brings its own lock; only a bare fs
	// needs the executor's mutex wrapped around resolution. Replacing
	// an existing lock with s.mu here would strip the actor
	// serialization and race device registration.
	waitView := func(fs *vfs.FS) *vfs.FS { return fs }
	if s.hub == nil && fs != nil {
		sfs := fs.EnsureSerialized(&s.mu)
		waitView = func(*vfs.FS) *vfs.FS { return sfs }
	}
	waiterSlots := make(chan struct{}, maxConnWaiters)

	ra := &readahead{}
	for {
		item := <-reqCh
		if item.err != nil {
			flush()
			// EOF, a closed or timed-out connection: nothing to say —
			// unless the server is draining, in which case the timeout is
			// Shutdown's nudge and the client deserves to hear why its
			// connection is going away instead of a silent hangup.
			var ne net.Error
			if errors.Is(item.err, io.EOF) || errors.Is(item.err, io.ErrUnexpectedEOF) ||
				errors.Is(item.err, net.ErrClosed) || (errors.As(item.err, &ne) && ne.Timeout()) {
				if s.isDraining() {
					out = frame{Code: codeDraining, Str: ErrDraining.Error()}
					emit()
					flush()
				}
				return
			}
			// A malformed frame deserves an explicit reply before the
			// connection closes: the byte stream cannot be resynced, but
			// the client learns why instead of seeing a silent hangup.
			out = frame{Code: codeProto, Str: item.err.Error()}
			emit()
			flush()
			return
		}
		req := item.req
		if connDead.Load() {
			// The peer is provably gone; requests it pipelined before
			// dying are abandoned work. Skip them instead of spending
			// executor and namespace time on replies nobody will read.
			s.Obs.Counter("srvnet.backpressure.abandoned").Inc()
			continue
		}
		if s.isDraining() {
			// A request decoded after Shutdown began gets the typed
			// refusal so the client degrades instead of redialing.
			out = frame{Seq: req.Seq, Code: codeDraining, Str: ErrDraining.Error()}
			emit()
			flush()
			return
		}
		if req.Op == opAttach {
			out = frame{Seq: req.Seq}
			if s.hub == nil {
				out.Code = codeProto
				out.Str = "srvnet: server does not multiplex sessions"
			} else if nfs, ndetach, err := s.hub.AttachSession(req.Str); err != nil {
				out = s.errResp(err)
				out.Seq = req.Seq
			} else {
				if detach != nil {
					detach()
				}
				fs, detach = nfs, ndetach
				// The readahead slot belongs to the old namespace.
				*ra = readahead{}
			}
			if err := reply(); err != nil {
				return
			}
			continue
		}
		if req.Op == opReadWait {
			// A long poll must not hold the executor: requests pipelined
			// behind it keep flowing while the waiter parks on the event
			// device. The reply is written under wmu whenever it is ready.
			if fs == nil {
				out = frame{Seq: req.Seq, Code: codeNoSess, Str: ErrNoSession.Error()}
				if err := reply(); err != nil {
					return
				}
				continue
			}
			wfs := waitView(fs)
			// Parking costs a goroutine, budgeted twice: per connection
			// (waiterSlots) and server-wide (acquireWaiter), so neither
			// one flooding client nor a thousand polite ones can grow
			// goroutines without bound.
			parked := false
			if s.acquireWaiter() {
				select {
				case waiterSlots <- struct{}{}:
					parked = true
				default:
					s.releaseWaiter()
				}
			}
			if parked {
				waiters.Add(1)
				go func(req frame) {
					defer waiters.Done()
					defer s.releaseWaiter()
					defer func() { <-waiterSlots }()
					s.serveReadWait(req, wfs, stop, &wmu, bw, conn)
				}(req)
				// The parked waiter emits nothing until its event arrives,
				// so a reply batched behind this request (reply defers its
				// flush while more requests are queued) would sit in bw for
				// the whole poll. Flush it now unless another request is
				// already queued to pick it up.
				if len(reqCh) == 0 {
					if err := flush(); err != nil {
						return
					}
				}
			} else {
				// Waiter budget exhausted: degrade this subscriber to an
				// immediate poll instead of parking another goroutine.
				s.Obs.Counter("srvnet.backpressure.poll").Inc()
				out = s.readWait(req, wfs, stop, time.Millisecond)
				out.Seq = req.Seq
				if err := reply(); err != nil {
					return
				}
			}
			continue
		}
		out = s.handle(req, fs, ra)
		out.Seq = req.Seq
		if err := reply(); err != nil {
			return
		}
	}
}

// noteWriteErr classifies a failed response write: a timeout is the
// slow-reader policy firing — the peer stopped draining its socket, the
// write buffer filled, and the connection is disconnected with the
// deadline error rather than buffering without bound.
func (s *Server) noteWriteErr(err error) {
	if err == nil {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.Obs.Counter("srvnet.backpressure.disconnect").Inc()
	}
}

// readWait performs one bounded wait for events past req.Off on the
// path req names. Cancellation (the connection tearing down) surfaces
// as the error the device reports on stop.
func (s *Server) readWait(req frame, fs *vfs.FS, stop <-chan struct{}, timeout time.Duration) frame {
	data, next, err := fs.ReadWait(req.Str, uint64(req.Off), stop, timeout)
	if err != nil {
		return frame{Code: codeOf(err), Str: err.Error()}
	}
	// Gen carries the resume seq: an empty timeout reply still tells the
	// subscriber where to resume, so the next poll cannot re-deliver.
	return frame{Data: data, Gen: next}
}

// serveReadWait runs one parked readwait to completion on its own
// goroutine and delivers the reply under the connection's write mutex.
// A connection already tearing down (stop closed) swallows the reply:
// the peer is gone, and bw is about to die with the conn.
func (s *Server) serveReadWait(req frame, fs *vfs.FS, stop <-chan struct{}, wmu *sync.Mutex, bw *bufio.Writer, conn net.Conn) {
	d := time.Duration(req.MS) * time.Millisecond
	if max := s.readWaitCap(); d <= 0 || d > max {
		d = max
	}
	out := s.readWait(req, fs, stop, d)
	out.Seq = req.Seq
	wmu.Lock()
	defer wmu.Unlock()
	select {
	case <-stop:
		return
	default:
	}
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	if _, err := writeFrame(bw, nil, &out); err != nil {
		s.noteWriteErr(err)
		return
	}
	s.noteWriteErr(bw.Flush())
}

// readWaitCap bounds one long poll: half the idle timeout (so the
// client's silence while parked can never trip the idle deadline — it
// re-polls at least twice per idle window) and never more than
// maxReadWait.
func (s *Server) readWaitCap() time.Duration {
	max := s.idleTimeout() / 2
	if max > maxReadWait {
		max = maxReadWait
	}
	return max
}

// Shutdown gracefully stops the server: it closes the listeners handed
// to Serve, stops accepting new connections, lets requests already in
// flight complete, and then closes their connections. If ctx expires
// first, remaining connections are force-closed and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.draining.Store(true)
	for l := range s.listeners {
		l.Close()
	}
	// Nudge idle connections: an immediate read deadline makes their
	// blocked frame read return, while a request currently being handled
	// still gets its response written before the loop exits.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close without waiting: a handler blocked on the host's
		// namespace lock (Locker) must not deadlock Shutdown; it exits
		// when its next conn operation fails.
		s.closeConns()
		return ctx.Err()
	}
}

// raWindow is how much a readahead miss pulls in: enough that a client
// streaming a file sequentially revisits the namespace once per megabyte
// rather than once per 64 KiB chunk, small enough that a connection
// walking a gigabyte log holds one window, not the log.
const raWindow = 1 << 20

// readahead is a per-connection slot for sequential chunked reads: the
// first "readat" of a file reads a raWindow-sized range once (one
// namespace visit, one device handle); later chunks slice the window as
// long as the file's generation has not moved and the range is covered,
// sliding the window forward on the first chunk past it. Files without
// a generation cannot be validated and are re-read per chunk.
//
// Earlier versions snapshotted the entire file here, which was simpler
// but meant a "readat" of the head of a gigabyte file materialized the
// whole thing server-side — exactly what the paged text engine exists
// to avoid.
//
// The slot stays because it pays even now that vfs.FS.ReadAt
// range-reads: serving each "readat" straight from the namespace
// instead raised perfbench large's input p50 (a viewer walking a paged
// 64 MiB log in 16 KiB chunks) from 41.5 to 45.9 µs, worse in 4 of 4
// alternating pairs of 20 s runs on a 2-vCPU Xeon VM; a repeat read
// medians of 42.9 and 45.1 µs, worse in 3 of 4.
type readahead struct {
	path string
	gen  uint64
	base int64  // file offset of data[0]
	data []byte // the window, a prefix of buf
	buf  []byte // refilled in place by every miss
	eof  bool   // data reaches end of file
}

// readAt serves one chunk through the slot. A miss refills the slot's
// one buffer instead of allocating a window: the reply to the previous
// request was written into the connection's bufio writer before the
// executor took this one, so nothing still reads the old window. A
// request wider than the window re-reads at doubling sizes, so the
// buffer grows to what the file holds, never to what count asks for.
func (ra *readahead) readAt(fs *vfs.FS, reg *obs.Registry, path string, off, count int64) ([]byte, uint64, error) {
	if count <= 0 {
		count = defaultReadChunk
	}
	if off < 0 {
		off = 0
	}
	covered := off >= ra.base &&
		(off+count <= ra.base+int64(len(ra.data)) || ra.eof)
	if ra.path == path && ra.gen != 0 && covered && fs.Gen(path) == ra.gen {
		reg.Counter("srvnet.readahead.hit").Inc()
	} else {
		want := max(count, raWindow)
		for size := int64(raWindow); ; size = min(2*size, want) {
			if int64(len(ra.buf)) < size {
				ra.buf = make([]byte, size)
			}
			n, gen, err := fs.ReadAt(path, ra.buf[:size], off)
			if err != nil {
				ra.path = ""
				return nil, 0, err
			}
			ra.path, ra.gen, ra.base, ra.data = path, gen, off, ra.buf[:n]
			if ra.eof = int64(n) < size; ra.eof || size == want {
				break
			}
		}
		reg.Counter("srvnet.readahead.miss").Inc()
	}
	data := ra.data
	rel := off - ra.base
	if rel >= int64(len(data)) {
		return nil, ra.gen, nil
	}
	data = data[rel:]
	if count < int64(len(data)) {
		data = data[:count]
	}
	return data, ra.gen, nil
}

// handle performs one operation on fs. In single-namespace mode the
// server's mutex serializes all requests; in mux mode the per-session
// namespaces serialize themselves, so requests on different sessions
// proceed in parallel. Replies for operations that name a target file
// piggyback its edit generation, observed under the same lock as the
// operation, so client caches stay coherent with what they were told.
func (s *Server) handle(req frame, fs *vfs.FS, ra *readahead) frame {
	if s.hub == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if fs == nil {
		return frame{Code: codeNoSess, Str: ErrNoSession.Error()}
	}
	path := req.Str // a glob's pattern
	var out frame
	var err error
	switch req.Op {
	case opRead:
		out.Data, out.Gen, err = fs.ReadFileGen(path)
	case opReadAt:
		out.Data, out.Gen, err = ra.readAt(fs, s.Obs, path, req.Off, req.Count)
	case opWrite:
		if err = fs.WriteFile(path, req.Data); err == nil {
			out.Gen = fs.Gen(path)
		}
	case opAppend:
		if err = fs.AppendFile(path, req.Data); err == nil {
			out.Gen = fs.Gen(path)
		}
	case opReadDir:
		var ents []vfs.Info
		ents, err = fs.ReadDir(path)
		for _, e := range ents {
			out.Data = appendEntry(out.Data, e)
		}
	case opStat:
		var info vfs.Info
		if info, err = fs.Stat(path); err == nil {
			out.Data, out.Gen = appendEntry(nil, info), info.Gen
		}
	case opGlob:
		for _, name := range fs.Glob(path) {
			out.Data = appendEntry(out.Data, vfs.Info{Name: name})
		}
	case opMkdir:
		err = fs.MkdirAll(path)
	case opRemove:
		err = fs.Remove(path)
	default:
		err = fmt.Errorf("%w: op %v cannot be handled here", ErrProto, req.Op)
	}
	if err != nil {
		return s.errResp(err)
	}
	return out
}

// pendingCall is one in-flight request awaiting its reply. Exactly one
// result is ever delivered per issued call — by the reader on a matched
// reply, or by poisonAll/Close on failure — always after the call has
// been removed from the pending map, so the buffered send never blocks
// and a received call can be recycled.
type pendingCall struct {
	ch chan callResult
}

type callResult struct {
	resp frame
	err  error
}

// callPool recycles pendingCall structs (and their reply channels)
// across round trips: one fewer allocation per RPC on the hot path.
var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan callResult, 1)} }}

// timerPool recycles round-trip timers: time.NewTimer costs several
// allocations, paid otherwise on every call.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains t so the next getTimer cannot see a stale
// firing.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// cacheEntry is one generation-keyed cached read.
type cacheEntry struct {
	gen  uint64
	data []byte
}

// Client is a remote namespace handle over one connection. Methods are
// safe for concurrent use, and — unlike a conventional RPC client — they
// do not serialize: any number of calls may be in flight at once. Each
// caller encodes its request under a write mutex and then parks on a
// per-call channel; a single reader goroutine decodes replies and hands
// each to its caller by sequence number, so replies may arrive in any
// order. Batch (batch.go) queues several operations into one buffered
// write for explicit pipelining.
type Client struct {
	conn net.Conn

	// wmu serializes request encoding; bw buffers frames so a Batch
	// goes out in one write, and hdr is the reused header scratch.
	wmu sync.Mutex
	bw  *bufio.Writer
	hdr []byte

	br *bufio.Reader // owned by the reader goroutine

	pmu      sync.Mutex
	pending  map[uint64]*pendingCall
	seq      uint64
	closed   bool
	closeErr error // server refusal to report after poison; nil means ErrClientClosed

	cmu   sync.Mutex
	cache map[string]cacheEntry // nil when caching is off

	// Timeout bounds each round trip (queueing, write, and reply). Zero
	// means DefaultRoundTrip — a dead server fails the call instead of
	// hanging it — and a negative value disables the bound for callers
	// owning exotic transports. A timed-out call poisons the
	// connection: the stream's state is unknown once a reply has been
	// abandoned.
	Timeout time.Duration

	// Obs, when set before first use, records a per-op round-trip
	// latency histogram (srvnet.read, srvnet.write, ...), cache traffic
	// (srvnet.cache.hit / srvnet.cache.miss / srvnet.cache.inval), and
	// the srvnet.inflight up/down counter. ReconnectingClient
	// propagates its own.
	Obs *obs.Registry
}

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection and starts its reader
// goroutine (it exits when the connection closes). Round trips are
// bounded by DefaultRoundTrip until Timeout says otherwise.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, wireBufSize),
		br:      bufio.NewReaderSize(conn, wireBufSize),
		pending: map[uint64]*pendingCall{},
	}
	go c.reader()
	return c
}

// timeout resolves the effective round-trip bound.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	if c.Timeout < 0 {
		return 0
	}
	return DefaultRoundTrip
}

// SetCache enables (or, with false, disables and empties) the
// generation-keyed read cache: a ReadFile whose cached generation still
// stands is served locally with zero wire traffic.
//
// Coherence rules: an entry is trusted until this client learns its
// generation moved — from the generation piggybacked on any later
// reply that names the file (a Stat is therefore an explicit
// revalidation), or from a mutation issued through this client, which
// invalidates the entry before it is sent. The cache dies with the
// connection: a ReconnectingClient starts every redial cold, because a
// reconnect may attach to a recovered session whose generations restart.
// Writes by other clients are only observed through those piggybacked
// generations, so a strictly-fresh reader should Stat first; files with
// no generation (gen 0) are never cached.
func (c *Client) SetCache(on bool) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if on {
		if c.cache == nil {
			c.cache = map[string]cacheEntry{}
		}
	} else {
		c.cache = nil
	}
}

// cacheGet returns a copy of the cached contents of path, if trusted.
// A closed (or poisoned) client never serves from cache: its entries
// belong to a connection that no longer exists, and the miss routes the
// caller to the wire, where the failure surfaces and a
// ReconnectingClient redials cold.
func (c *Client) cacheGet(path string) ([]byte, bool) {
	if c.closedNow() {
		return nil, false
	}
	c.cmu.Lock()
	ent, ok := c.cache[path]
	c.cmu.Unlock()
	if !ok {
		return nil, false
	}
	return append([]byte(nil), ent.data...), true
}

func (c *Client) cacheEnabled() bool {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.cache != nil
}

// closedNow reports whether the connection has been closed or poisoned.
func (c *Client) closedNow() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.closed
}

// cachePut stores a read observed at generation gen; gen 0 means the
// file cannot be validated and is not cached.
func (c *Client) cachePut(path string, gen uint64, data []byte) {
	if gen == 0 {
		return
	}
	c.cmu.Lock()
	if c.cache != nil {
		c.cache[path] = cacheEntry{gen: gen, data: append([]byte(nil), data...)}
	}
	c.cmu.Unlock()
}

// cacheNote reconciles a piggybacked generation for path: a moved
// generation proves the cached entry stale.
func (c *Client) cacheNote(path string, gen uint64) {
	c.cmu.Lock()
	if ent, ok := c.cache[path]; ok && ent.gen != gen {
		delete(c.cache, path)
		c.cmu.Unlock()
		c.Obs.Counter("srvnet.cache.inval").Inc()
		return
	}
	c.cmu.Unlock()
}

// cacheInvalidate drops path unconditionally (a mutation is being
// issued through this client).
func (c *Client) cacheInvalidate(path string) {
	c.cmu.Lock()
	_, had := c.cache[path]
	if had {
		delete(c.cache, path)
	}
	c.cmu.Unlock()
	if had {
		c.Obs.Counter("srvnet.cache.inval").Inc()
	}
}

// cacheFlush empties the cache (the connection switched sessions).
func (c *Client) cacheFlush() {
	c.cmu.Lock()
	if c.cache != nil {
		c.cache = map[string]cacheEntry{}
	}
	c.cmu.Unlock()
}

// Close closes the connection out of band: it does not wait for
// in-flight round trips, so a Close behind a hung peer still returns
// promptly. Pending calls fail fast with ErrClientClosed as the closed
// connection unblocks them, and the reader goroutine exits.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.pmu.Unlock()
	err := c.conn.Close()
	for _, call := range calls {
		call.ch <- callResult{err: ErrClientClosed}
	}
	return err
}

// poisonAll ends the connection after a transport- or protocol-level
// failure: every pending call fails with err, and — when the failure
// was a typed server refusal (busy, draining) — closeErr is recorded so
// later calls report the refusal instead of a bare ErrClientClosed.
func (c *Client) poisonAll(err, closeErr error) {
	c.pmu.Lock()
	if !c.closed {
		c.closed = true
		c.closeErr = closeErr
		c.conn.Close()
	}
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.pmu.Unlock()
	for _, call := range calls {
		call.ch <- callResult{err: err}
	}
}

// reader is the connection's single reply loop: it decodes responses
// and hands each to the caller parked on its sequence number. A reply
// that matches no pending call is a protocol violation (the old
// one-reply-per-round-trip "out of sequence" condition, generalized to
// pipelining) and poisons the connection; a Seq-0 reply is the server
// refusing the connection itself and is delivered to every caller.
func (c *Client) reader() {
	var resp frame
	for {
		if err := readFrame(c.br, &resp, true); err != nil {
			c.poisonAll(fmt.Errorf("srvnet: receive: %w", err), nil)
			return
		}
		if resp.Seq == 0 {
			err := fmt.Errorf("%w: unattributable reply", ErrProto)
			if resp.Code != codeOK {
				err = errFromWire(&resp)
			}
			c.poisonAll(err, err)
			return
		}
		c.pmu.Lock()
		call, ok := c.pending[resp.Seq]
		if ok {
			delete(c.pending, resp.Seq)
		}
		c.pmu.Unlock()
		if !ok {
			c.poisonAll(fmt.Errorf("%w: response out of sequence (unexpected seq %d)",
				ErrProto, resp.Seq), nil)
			return
		}
		call.ch <- callResult{resp: resp}
	}
}

// start registers a call, assigns its sequence number, and encodes the
// request — flushing it onto the wire unless the caller is batching.
// On success the caller owns the returned pendingCall and must collect
// its result through wait.
func (c *Client) start(req *frame, flush bool) (*pendingCall, error) {
	call := callPool.Get().(*pendingCall)
	c.wmu.Lock()
	c.pmu.Lock()
	if c.closed {
		err := c.closeErr
		c.pmu.Unlock()
		c.wmu.Unlock()
		callPool.Put(call)
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.seq++
	req.Seq = c.seq
	c.pending[req.Seq] = call
	c.pmu.Unlock()
	c.Obs.Counter("srvnet.inflight").Add(1)
	if flush {
		// Batched frames skip the per-call deadline: the socket write
		// happens at Batch.Flush (which sets it), and a write that hangs
		// anyway is bounded by wait's timer poisoning the connection.
		if to := c.timeout(); to > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(to))
		}
	}
	var err error
	c.hdr, err = writeFrame(c.bw, c.hdr, req)
	if err == nil && flush {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("srvnet: send: %w", err)
		c.poisonAll(err, nil)
		// poisonAll — ours, or the reader's, which may have settled this
		// call first (a server's Seq-0 draining refusal closes the
		// connection under the write) — delivered to every pending call.
		// Report what was delivered: the refusal says why.
		if res := <-call.ch; res.err != nil {
			err = res.err
		}
		callPool.Put(call)
		c.Obs.Counter("srvnet.inflight").Add(-1)
		return nil, err
	}
	return call, nil
}

// wait collects the reply for a call started by start. A round trip
// that outlives the timeout poisons the connection — an abandoned reply
// leaves the stream state unknown — and fails every other in-flight
// call with it.
func (c *Client) wait(op op, call *pendingCall) (frame, error) {
	return c.waitWithin(op, call, c.timeout())
}

// waitWithin is wait with an explicit round-trip bound: long polls
// (ReadWait) stretch the default by their wait budget, so a legitimate
// empty poll is not mistaken for a dead peer.
func (c *Client) waitWithin(op op, call *pendingCall, to time.Duration) (frame, error) {
	defer c.Obs.Counter("srvnet.inflight").Add(-1)
	var res callResult
	select {
	case res = <-call.ch:
		// Pipelined common case: the reply landed before the caller got
		// here, so no timer is armed at all.
		resp, err := res.resp, res.err
		callPool.Put(call)
		if err != nil {
			return frame{}, err
		}
		if resp.Code != codeOK {
			return resp, errFromWire(&resp)
		}
		return resp, nil
	default:
	}
	if to > 0 {
		timer := getTimer(to)
		select {
		case res = <-call.ch:
			putTimer(timer)
		case <-timer.C:
			timerPool.Put(timer) // fired and drained: ready for reuse
			err := fmt.Errorf("srvnet: %s: no reply within %v (peer dead or stalled)", op, to)
			c.poisonAll(err, nil)
			// The poison (ours, or a concurrent one that beat us to the
			// pending map) delivered a result; drain it so the call can
			// be recycled.
			<-call.ch
			callPool.Put(call)
			return frame{}, err
		}
	} else {
		res = <-call.ch
	}
	resp, err := res.resp, res.err
	callPool.Put(call)
	if err != nil {
		return frame{}, err
	}
	if resp.Code != codeOK {
		return resp, errFromWire(&resp)
	}
	return resp, nil
}

// rpc performs one full round trip: pipelining-aware under the hood,
// but synchronous for the caller.
func (c *Client) rpc(req frame) (frame, error) {
	if c.Obs != nil {
		// Failed round trips are observed too: a latency histogram that
		// hides the slow failures would understate what remote users pay.
		defer func(t0 time.Time, op op) {
			c.Obs.Histogram("srvnet." + op.String()).Observe(time.Since(t0))
		}(time.Now(), req.Op)
	}
	call, err := c.start(&req, true)
	if err != nil {
		return frame{}, err
	}
	return c.wait(req.Op, call)
}

// Attach selects the session this connection's subsequent operations
// apply to, on a server that multiplexes sessions (NewMuxServer). The
// server spawns the session on first attach; re-attaching switches the
// connection to another session and empties the read cache, whose
// generations belonged to the old one.
func (c *Client) Attach(session string) error {
	_, err := c.rpc(frame{Op: opAttach, Str: session})
	if err == nil {
		c.cacheFlush()
	}
	return err
}

// ReadFile reads a remote file. With the cache enabled (SetCache), a
// file whose generation has not moved since the last read is served
// locally with zero wire traffic.
func (c *Client) ReadFile(path string) ([]byte, error) {
	cached := c.cacheEnabled()
	if cached {
		if data, ok := c.cacheGet(path); ok {
			c.Obs.Counter("srvnet.cache.hit").Inc()
			return data, nil
		}
		c.Obs.Counter("srvnet.cache.miss").Inc()
	}
	resp, err := c.rpc(frame{Op: opRead, Str: path})
	if err != nil {
		return resp.Data, err
	}
	if cached {
		c.cachePut(path, resp.Gen, resp.Data)
	}
	return resp.Data, nil
}

// ReadFileAt reads up to count bytes of a remote file from byte offset
// off (count <= 0 asks for the server's default chunk). A short or
// empty result means end of file. Sequential chunks are served from the
// server's per-connection readahead slot: a miss reads a 1 MiB window
// of the file, and later chunks slice it while the window covers them
// and the file's generation holds. Walking a large body therefore reads
// it once per window, not once per chunk; each hit still checks the
// generation, which is one path lookup.
func (c *Client) ReadFileAt(path string, off, count int64) ([]byte, error) {
	resp, err := c.rpc(frame{Op: opReadAt, Str: path, Off: off, Count: count})
	return resp.Data, err
}

// ReadWait long-polls an event file: it blocks server-side until events
// past seq since exist on path (0 = from now), the wait budget expires,
// or the server's own cap cuts the poll short. It returns the event
// lines and the seq to resume from; an empty data with a nil error is
// the normal empty poll, and resuming from the returned seq guarantees
// no event is delivered twice or skipped (a bus overflow surfaces as a
// "gap" event line, not a silent loss). On a plain file the server
// degrades the call to an immediate read, so ReadWait is safe to point
// at any path. wait <= 0 asks for the server's maximum poll.
//
// The round trip is bounded by the client timeout plus the wait budget
// — a long poll is the one call where a silent server is healthy.
func (c *Client) ReadWait(path string, since uint64, wait time.Duration) (data []byte, next uint64, err error) {
	wait = min(max(wait, 0), maxReadWait)
	req := frame{Op: opReadWait, Str: path, Off: int64(since), MS: uint32(wait / time.Millisecond)}
	if c.Obs != nil {
		defer func(t0 time.Time) {
			c.Obs.Histogram("srvnet.readwait").Observe(time.Since(t0))
		}(time.Now())
	}
	call, err := c.start(&req, true)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.waitWithin(opReadWait, call, c.readWaitBudget(wait))
	if err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Gen, nil
}

// readWaitBudget bounds one readwait round trip client-side: the base
// timeout plus the server's park. A wait <= 0 delegates the park length
// to the server, whose cap (readWaitCap) can reach maxReadWait — the
// budget must cover that whole cap, because the server's clock starts
// at receipt, strictly after the client's: budgeting only the base
// timeout would let a maximum-length empty poll on an idle session
// outlive the client timer and poison the connection.
func (c *Client) readWaitBudget(wait time.Duration) time.Duration {
	to := c.timeout()
	if to <= 0 {
		return 0
	}
	if wait <= 0 {
		wait = maxReadWait
	}
	return to + wait
}

// StartPushInval turns the session's event stream into cache coherence:
// a background goroutine long-polls root's event log (root+"/log",
// where root is the help mount, usually "/mnt/help") and drops cached
// entries the moment their windows change — so a cache hit needs no
// Stat round trip to be trusted fresh. Each push-driven drop counts as
// srvnet.cache.pushinval; a stream gap (the subscriber fell too far
// behind) flushes the whole cache, since anything could have changed in
// the lost span.
//
// The goroutine exits when the connection dies (Close, poison, server
// gone) or when the returned stop function is called — the cache dies
// with the connection either way, and a ReconnectingClient re-arms the
// watcher on the next dial. A readwait refused on a still-healthy
// connection (wrong root, server draining) must not kill the watcher
// silently while the cache keeps serving: each refusal flushes the
// cache (events may be going unheard) and counts as
// srvnet.cache.pushinval.err, then the poll is retried with backoff;
// refusals that persist past the retry budget disable the cache
// entirely and leave a trace event, because a cache with no
// invalidation feed is unbounded staleness.
//
// Invalidation is asynchronous: a read racing an edit may still see the
// old cached contents until the event lands, which is the same window a
// polling Stat would have.
func (c *Client) StartPushInval(root string) (stop func()) {
	log := vfs.Clean(root + "/log")
	done := make(chan struct{})
	var once sync.Once
	go func() {
		var since uint64
		failures := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			data, next, err := c.ReadWait(log, since, 0)
			if err != nil {
				if c.closedNow() {
					// Normal death: cacheGet refuses on a closed client,
					// so the unwatched cache cannot serve anyone.
					return
				}
				c.cacheFlush()
				c.Obs.Counter("srvnet.cache.pushinval.err").Inc()
				failures++
				if failures >= pushInvalFailureLimit {
					c.SetCache(false)
					c.Obs.Event("srvnet.cache", "push invalidation dead, cache disabled: "+err.Error())
					return
				}
				select {
				case <-done:
					return
				case <-time.After(pushInvalBackoff << (failures - 1)):
				}
				continue
			}
			failures = 0
			since = next
			c.applyPushEvents(root, data)
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// applyPushEvents folds a batch of event lines into the cache.
func (c *Client) applyPushEvents(root string, data []byte) {
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		ev, ok := notify.ParseLine(line)
		if !ok {
			continue
		}
		switch ev.Kind {
		case notify.KindGap:
			// Unknown events were lost; nothing cached can be trusted.
			c.cacheFlush()
			c.Obs.Counter("srvnet.cache.pushinval").Inc()
		case "body", "tag":
			// Detail is "gen <G>": the generation the window's file
			// reports after the change. A cached entry at any other
			// generation is stale. Events published before the bus was
			// armed carry no detail; gen stays 0 and the entry is
			// dropped unconditionally (assume stale).
			gen := uint64(0)
			if g, ok := strings.CutPrefix(ev.Detail, "gen "); ok {
				gen, _ = strconv.ParseUint(g, 10, 64)
			}
			c.pushInval(vfs.Clean(fmt.Sprintf("%s/%d/%s", root, ev.Window, ev.Kind)), gen)
		case "del":
			c.pushInval(vfs.Clean(fmt.Sprintf("%s/%d/body", root, ev.Window)), 0)
			c.pushInval(vfs.Clean(fmt.Sprintf("%s/%d/tag", root, ev.Window)), 0)
		}
	}
}

// pushInval drops path's cached entry if the pushed generation proves
// it stale (gen 0 means "unknown, drop unconditionally").
func (c *Client) pushInval(path string, gen uint64) {
	c.cmu.Lock()
	ent, ok := c.cache[path]
	stale := ok && (gen == 0 || ent.gen != gen)
	if stale {
		delete(c.cache, path)
	}
	c.cmu.Unlock()
	if stale {
		c.Obs.Counter("srvnet.cache.pushinval").Inc()
	}
}

// WriteFile writes (replacing) a remote file. The cached entry for the
// path, if any, is invalidated.
func (c *Client) WriteFile(path string, data []byte) error {
	c.cacheInvalidate(path)
	_, err := c.rpc(frame{Op: opWrite, Str: path, Data: data})
	return err
}

// AppendFile appends to a remote file, invalidating its cached entry.
func (c *Client) AppendFile(path string, data []byte) error {
	c.cacheInvalidate(path)
	_, err := c.rpc(frame{Op: opAppend, Str: path, Data: data})
	return err
}

// ReadDir lists a remote directory. Piggybacked entry generations
// revalidate cached reads of the directory's files.
func (c *Client) ReadDir(path string) ([]vfs.Info, error) {
	resp, err := c.rpc(frame{Op: opReadDir, Str: path})
	if err != nil {
		return nil, err
	}
	ents, err := parseEntries(resp.Data)
	if err != nil {
		return nil, err
	}
	if c.cacheEnabled() {
		for _, e := range ents {
			if !e.IsDir {
				c.cacheNote(vfs.Clean(path+"/"+e.Name), e.Gen)
			}
		}
	}
	return ents, nil
}

// Stat describes a remote file. The reply's generation revalidates the
// cached entry, so Stat-then-ReadFile is the strict-freshness idiom for
// cached clients.
func (c *Client) Stat(path string) (vfs.Info, error) {
	resp, err := c.rpc(frame{Op: opStat, Str: path})
	if err != nil {
		return vfs.Info{}, err
	}
	info, err := statInfo(&resp)
	if err == nil && c.cacheEnabled() {
		c.cacheNote(path, resp.Gen)
	}
	return info, err
}

// Glob expands a pattern remotely.
func (c *Client) Glob(pattern string) ([]string, error) {
	resp, err := c.rpc(frame{Op: opGlob, Str: pattern})
	if err != nil {
		return nil, err
	}
	ents, err := parseEntries(resp.Data)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	return names, nil
}

// MkdirAll creates a remote directory tree.
func (c *Client) MkdirAll(path string) error {
	_, err := c.rpc(frame{Op: opMkdir, Str: path})
	return err
}

// Remove deletes a remote file or empty directory, invalidating its
// cached entry.
func (c *Client) Remove(path string) error {
	c.cacheInvalidate(path)
	_, err := c.rpc(frame{Op: opRemove, Str: path})
	return err
}
