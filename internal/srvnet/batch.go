package srvnet

import (
	"sync"
	"time"

	"repro/internal/vfs"
)

// Batch queues several operations and pushes them onto the wire in a
// single buffered write, turning N round trips into one send followed
// by N (possibly coalesced) replies — explicit pipelining for callers
// that know their next few operations up front, like the repl's fetch
// command or ReconnectingClient.ReadFiles.
//
// Queue operations, call Flush, then collect each Future. Collecting a
// Future before Flush flushes implicitly. A Batch is not safe for
// concurrent use; the Futures it returns are collected independently.
type Batch struct {
	c       *Client
	mu      sync.Mutex
	queued  []*Future
	flushed bool
}

// Future is one queued operation's pending result. Exactly one of the
// typed accessors should be called, once, matching the operation.
type Future struct {
	b    *Batch
	op   op
	path string
	call *pendingCall // nil when resolved locally (cache hit) or failed at queue time
	resp frame
	err  error
	done bool
}

// NewBatch starts an empty pipeline on the client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// queue registers and encodes one request without flushing.
func (b *Batch) queue(req frame) *Future {
	f := &Future{b: b, op: req.Op, path: req.Str}
	call, err := b.c.start(&req, false)
	if err != nil {
		f.err, f.done = err, true
		return f
	}
	f.call = call
	b.mu.Lock()
	b.queued = append(b.queued, f)
	b.flushed = false
	b.mu.Unlock()
	return f
}

// ReadFile queues a read. A cache hit resolves the Future locally with
// zero wire traffic.
func (b *Batch) ReadFile(path string) *Future {
	if b.c.cacheEnabled() {
		if data, ok := b.c.cacheGet(path); ok {
			b.c.Obs.Counter("srvnet.cache.hit").Inc()
			return &Future{op: opRead, path: path, resp: frame{Data: data}, done: true}
		}
		b.c.Obs.Counter("srvnet.cache.miss").Inc()
	}
	return b.queue(frame{Op: opRead, Str: path})
}

// Stat queues a stat.
func (b *Batch) Stat(path string) *Future {
	return b.queue(frame{Op: opStat, Str: path})
}

// WriteFile queues a write, invalidating the path's cached entry.
func (b *Batch) WriteFile(path string, data []byte) *Future {
	b.c.cacheInvalidate(path)
	return b.queue(frame{Op: opWrite, Str: path, Data: data})
}

// AppendFile queues an append, invalidating the path's cached entry.
func (b *Batch) AppendFile(path string, data []byte) *Future {
	b.c.cacheInvalidate(path)
	return b.queue(frame{Op: opAppend, Str: path, Data: data})
}

// Flush pushes every queued request onto the wire in one write.
func (b *Batch) Flush() error {
	b.mu.Lock()
	if b.flushed {
		b.mu.Unlock()
		return nil
	}
	b.flushed = true
	b.mu.Unlock()
	b.c.Obs.Counter("srvnet.batch.flushes").Inc()
	b.c.wmu.Lock()
	if to := b.c.timeout(); to > 0 {
		b.c.conn.SetWriteDeadline(time.Now().Add(to))
	}
	err := b.c.bw.Flush()
	b.c.wmu.Unlock()
	return err
}

// resolve collects the wire reply, flushing the batch first if the
// caller never did.
func (f *Future) resolve() {
	if f.done {
		return
	}
	f.done = true
	if f.b != nil {
		if err := f.b.Flush(); err != nil {
			// The failed flush poisoned the client; the pending call has
			// been (or is being) failed — collect that result.
		}
	}
	f.resp, f.err = f.b.c.wait(f.op, f.call)
	if f.err == nil && f.op == opRead {
		f.b.c.cachePut(f.path, f.resp.Gen, f.resp.Data)
	}
}

// Err waits for the operation and returns its error; the accessor for
// queued writes and appends.
func (f *Future) Err() error {
	f.resolve()
	return f.err
}

// Data waits for a queued read and returns its contents.
func (f *Future) Data() ([]byte, error) {
	f.resolve()
	return f.resp.Data, f.err
}

// Info waits for a queued stat and returns the file's Info.
func (f *Future) Info() (vfs.Info, error) {
	f.resolve()
	if f.err != nil {
		return vfs.Info{}, f.err
	}
	info, err := statInfo(&f.resp)
	if err == nil && f.b != nil && f.b.c.cacheEnabled() {
		f.b.c.cacheNote(f.path, f.resp.Gen)
	}
	return info, err
}
