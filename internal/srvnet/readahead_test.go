package srvnet

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestReadaheadWindowed drives the per-connection readahead slot directly
// over a file several times the window size: a sequential sweep must cost
// one namespace read per window (not per chunk, and never the whole
// file), the slot must never hold more than one window, and backward
// seeks or generation bumps must re-read.
func TestReadaheadWindowed(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	body := make([]byte, 3*raWindow+12345)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	fs.WriteFile("/d/huge", body)
	reg := obs.New()
	ra := &readahead{}

	const chunk = 64 * 1024
	var got []byte
	for off := int64(0); ; {
		data, _, err := ra.readAt(fs, reg, "/d/huge", off, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			break
		}
		if len(ra.data) > raWindow {
			t.Fatalf("slot holds %d bytes, window is %d", len(ra.data), raWindow)
		}
		got = append(got, data...)
		off += int64(len(data))
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("sweep reassembled %d bytes, want %d", len(got), len(body))
	}
	stats := reg.StatsMap()
	if misses := stats["srvnet.readahead.miss"]; misses != 4 {
		t.Errorf("misses = %d, want 4 (one per window)", misses)
	}
	if hits := stats["srvnet.readahead.hit"]; hits < 40 {
		t.Errorf("hits = %d, want most chunks", hits)
	}

	// A backward seek outside the current window re-reads there.
	m0 := reg.StatsMap()["srvnet.readahead.miss"]
	data, _, err := ra.readAt(fs, reg, "/d/huge", 0, chunk)
	if err != nil || !bytes.Equal(data, body[:chunk]) {
		t.Fatalf("backward read = %d bytes err=%v", len(data), err)
	}
	if reg.StatsMap()["srvnet.readahead.miss"] != m0+1 {
		t.Errorf("backward seek did not miss")
	}

	// A generation bump invalidates even a covered range.
	fs.WriteFile("/d/huge", []byte("rewritten"))
	data, _, err = ra.readAt(fs, reg, "/d/huge", 0, chunk)
	if err != nil || string(data) != "rewritten" {
		t.Fatalf("post-write read = %q err=%v", data, err)
	}
}

// TestReadaheadWideRequest: a "readat" wider than the window is served
// whole, and the slot's buffer grows to what the file holds, not to the
// count the client asked for.
func TestReadaheadWideRequest(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	body := make([]byte, 3*raWindow+12345)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	fs.WriteFile("/d/huge", body)
	reg := obs.New()
	ra := &readahead{}

	data, _, err := ra.readAt(fs, reg, "/d/huge", 1000, 2*raWindow+7)
	if err != nil || !bytes.Equal(data, body[1000:1000+2*raWindow+7]) {
		t.Fatalf("wide read = %d bytes err=%v, want %d", len(data), err, 2*raWindow+7)
	}
	data, _, err = ra.readAt(fs, reg, "/d/huge", 5, 1<<40)
	if err != nil || !bytes.Equal(data, body[5:]) {
		t.Fatalf("read to EOF = %d bytes err=%v, want %d", len(data), err, len(body)-5)
	}
	if len(ra.buf) > 2*len(body) {
		t.Fatalf("slot buffer is %d bytes for a %d-byte file", len(ra.buf), len(body))
	}
}
