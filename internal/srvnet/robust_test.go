package srvnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/vfs"
)

// waitGoroutines waits for the goroutine count to drop back to base,
// failing the test with a stack dump if it does not.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<17)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestMalformedFrameGetsProtocolError is the regression test for the
// server silently dropping malformed frames: the client must receive an
// explicit protocol-error reply before the connection closes. The
// garbage is longer than a header, so it is a malformed frame, not an
// incomplete one the server would wait out.
func TestMalformedFrameGetsProtocolError(t *testing.T) {
	fs := vfs.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(fs).Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte("this is not a frame\n"), 3)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	var resp frame
	if err := readFrame(br, &resp, true); err != nil {
		t.Fatalf("no protocol-error reply: %v", err)
	}
	if resp.Code != codeProto || !strings.Contains(resp.Str, "malformed") {
		t.Errorf("reply = %+v", resp)
	}
	// The connection is closed afterward: the stream cannot be resynced.
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection stayed open after protocol error")
	}
}

// TestMalformedFrameSeenByClient: the same condition through the Client,
// which should surface ErrProto.
func TestMalformedFrameSeenByClient(t *testing.T) {
	fs := vfs.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(fs).Serve(l)

	// Corrupt the client's first request frame in flight.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(faultnet.WrapConn(raw, faultnet.NewScript(
		faultnet.Fault{Op: "write", After: 0, Kind: faultnet.Corrupt})))
	c.Timeout = 2 * time.Second
	defer c.Close()
	_, err = c.ReadFile("/x")
	if !errors.Is(err, ErrProto) {
		t.Errorf("err = %v, want ErrProto", err)
	}
}

func TestVfsSentinelsSurviveTheWire(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	c, _ := serve(t, fs)
	if _, err := c.ReadFile("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
	if _, err := c.ReadFile("/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("read dir: err = %v, want ErrIsDir", err)
	}
	if _, err := c.ReadDir("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("readdir missing: err = %v, want ErrNotExist", err)
	}
	// The remote message text is preserved too.
	if _, err := c.ReadFile("/nope"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("message lost: %v", err)
	}
}

// TestServeClosesConnectionsOnListenerClose is the regression test for
// the per-connection goroutine leak: closing the listener must close
// live connections and let their goroutines exit.
func TestServeClosesConnectionsOnListenerClose(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// Three connected clients, sitting idle after one op each.
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if n := srv.ConnCount(); n != 3 {
		t.Fatalf("ConnCount = %d", n)
	}

	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("ConnCount after close = %d", n)
	}
	// The clients see their connections die.
	for _, c := range clients {
		if _, err := c.ReadDir("/d"); err == nil {
			t.Error("op on killed connection succeeded")
		}
	}
	waitGoroutines(t, base)
}

func TestShutdownDrains(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	go srv.Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteFile("/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Both the listener and the connection are gone.
	if _, err := net.Dial("tcp", l.Addr().String()); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if _, err := c.ReadFile("/d/f"); err == nil {
		t.Error("connection survived Shutdown")
	}
}

// TestShutdownForceClosesOnContextExpiry holds the server's namespace
// lock so a request stays in flight, then verifies an expired context
// force-closes rather than waiting forever.
func TestShutdownForceClosesOnContextExpiry(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	go srv.Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 5 * time.Second

	srv.Locker().Lock() // request will block inside handle
	opDone := make(chan error, 1)
	go func() {
		_, err := c.ReadFile("/d/f")
		opDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the lock

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	srv.Locker().Unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-opDone; err == nil {
		t.Error("in-flight op on force-closed connection succeeded")
	}
}

func TestBusyWhenFull(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	srv.MaxConns = 1
	go srv.Serve(l)

	c1, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.ReadDir("/d"); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.ReadDir("/d"); !errors.Is(err, ErrBusy) {
		t.Errorf("over-capacity err = %v, want ErrBusy", err)
	}
	// The first client still works.
	if _, err := c1.ReadDir("/d"); err != nil {
		t.Errorf("first client broken: %v", err)
	}
}

func TestIdleTimeoutClosesConnection(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	srv.IdleTimeout = 50 * time.Millisecond
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadDir("/d"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for srv.ConnCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.ReadDir("/d"); err == nil {
		t.Error("op on reaped connection succeeded")
	}
}

// TestClientCloseDuringRPC is the regression test for Close racing an
// in-flight round trip: with the mutex taken by both, they serialize
// instead of interleaving on the connection (run under -race).
func TestClientCloseDuringRPC(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Stall the server's first response so the rpc is reliably in
	// flight when Close runs.
	fl := faultnet.WrapListener(l, func(i int) *faultnet.Script {
		return faultnet.NewScript(faultnet.Fault{Op: "write", After: 0, Kind: faultnet.Stall})
	})
	go NewServer(fs).Serve(fl)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 200 * time.Millisecond

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.ReadDir("/d") // times out or sees the close
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		c.Close()
	}()
	wg.Wait()
	if _, err := c.ReadDir("/d"); !errors.Is(err, ErrClientClosed) {
		t.Errorf("op after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestSeqMismatchPoisons drives the client against a fake server that
// answers with the wrong sequence number.
func TestSeqMismatchPoisons(t *testing.T) {
	cside, sside := net.Pipe()
	go func() {
		var req frame
		if readFrame(bufio.NewReader(sside), &req, false) == nil {
			writeFrame(sside, nil, &frame{Seq: req.Seq + 7})
		}
	}()
	c := NewClient(cside)
	c.Timeout = 2 * time.Second
	defer c.Close()
	_, err := c.ReadFile("/x")
	if !errors.Is(err, ErrProto) {
		t.Errorf("err = %v, want ErrProto", err)
	}
	if _, err := c.ReadFile("/x"); !errors.Is(err, ErrClientClosed) {
		t.Errorf("after poison: err = %v, want ErrClientClosed", err)
	}
}

func TestReconnectingClientRetriesAcrossRedial(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("payload"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// First connection drops the first response; later ones are clean.
	fl := faultnet.WrapListener(l, func(i int) *faultnet.Script {
		if i == 0 {
			return faultnet.NewScript(faultnet.Fault{Op: "write", After: 0, Kind: faultnet.Drop})
		}
		return nil
	})
	go NewServer(fs).Serve(fl)

	var states []State
	rc := NewReconnectingClient(l.Addr().String())
	rc.OpTimeout = 100 * time.Millisecond
	rc.BackoffBase = time.Millisecond
	rc.OnStateChange = func(s State, err error) { states = append(states, s) }
	defer rc.Close()

	data, err := rc.ReadFile("/d/f")
	if err != nil || string(data) != "payload" {
		t.Fatalf("data=%q err=%v", data, err)
	}
	if len(states) < 2 || states[len(states)-1] != StateConnected {
		t.Errorf("states = %v", states)
	}
	sawRetry := false
	for _, s := range states {
		if s == StateRetrying {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Errorf("no retrying transition: %v", states)
	}
}

func TestReconnectingClientDegrades(t *testing.T) {
	// A server that is simply gone: listener opened to learn a port,
	// then closed.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var final State
	var finalErr error
	rc := NewReconnectingClient(addr)
	rc.OpTimeout = 50 * time.Millisecond
	rc.BackoffBase = time.Millisecond
	rc.BackoffCap = 5 * time.Millisecond
	rc.MaxRetries = 2
	rc.OnStateChange = func(s State, err error) { final, finalErr = s, err }
	defer rc.Close()

	start := time.Now()
	_, err = rc.ReadFile("/d/f")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("degradation took %v", elapsed)
	}
	if final != StateDegraded || finalErr == nil {
		t.Errorf("final state %v err %v", final, finalErr)
	}
	// Permanent errors still come back typed once the server returns.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot re-listen on %s: %v", addr, err)
	}
	defer l2.Close()
	go NewServer(vfs.New()).Serve(l2)
	if _, err := rc.ReadFile("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("recovered read err = %v, want ErrNotExist", err)
	}
	if rc.State() != StateConnected {
		t.Errorf("state after recovery = %v", rc.State())
	}
}

func TestReconnectingClientDoesNotRetryWrites(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The first connection drops its first response: an idempotent read
	// would retry and succeed, a write must refuse to guess.
	fl := faultnet.WrapListener(l, func(i int) *faultnet.Script {
		if i == 0 {
			return faultnet.NewScript(faultnet.Fault{Op: "write", After: 0, Kind: faultnet.Drop})
		}
		return nil
	})
	srv := NewServer(fs)
	go srv.Serve(fl)

	rc := NewReconnectingClient(l.Addr().String())
	rc.OpTimeout = 100 * time.Millisecond
	rc.BackoffBase = time.Millisecond
	defer rc.Close()

	err = rc.AppendFile("/d/log", []byte("once"))
	if err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("ambiguous write err = %v", err)
	}
	if !strings.Contains(err.Error(), "outcome unknown") {
		t.Errorf("err = %v", err)
	}
	// The append was applied exactly once server-side (the response,
	// not the request, was dropped) — proving no blind retry happened.
	// Direct namespace access coordinates through the server's lock.
	srv.Locker().Lock()
	data, _ := fs.ReadFile("/d/log")
	srv.Locker().Unlock()
	if string(data) != "once" {
		t.Errorf("server saw %q, want %q (blind retry?)", data, "once")
	}
	// Permanent errors pass through without retry burning the budget.
	if err := rc.WriteFile("/no/dir/f", []byte("x")); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("write to missing dir: %v", err)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	a := NewReconnectingClient("x")
	a.BackoffBase = 10 * time.Millisecond
	a.BackoffCap = 80 * time.Millisecond
	a.Seed = 7
	b := NewReconnectingClient("x")
	b.BackoffBase = 10 * time.Millisecond
	b.BackoffCap = 80 * time.Millisecond
	b.Seed = 7
	for i := 1; i <= 10; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v", i, da, db)
		}
		if da > 80*time.Millisecond {
			t.Fatalf("attempt %d: %v exceeds cap", i, da)
		}
		if da < 5*time.Millisecond {
			t.Fatalf("attempt %d: %v below base/2", i, da)
		}
	}
}
