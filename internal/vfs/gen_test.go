package vfs

import "testing"

// genDev is a device that reports its own edit generation.
type genDev struct {
	testDevice
	gen uint64
}

func (d *genDev) Gen() uint64 { return d.gen }

// Generations: every visible mutation of a regular file must move its
// generation, and Stat/ReadDir/ReadFileGen must agree on the value —
// this is what srvnet's client cache keys on.
func TestGenMovesOnWrite(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	if err := fs.WriteFile("/d/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen == 0 {
		t.Fatal("regular file has no generation")
	}
	g1 := info.Gen
	if got := fs.Gen("/d/f"); got != g1 {
		t.Fatalf("Gen = %d, Stat.Gen = %d", got, g1)
	}
	data, g2, err := fs.ReadFileGen("/d/f")
	if err != nil || string(data) != "v1" || g2 != g1 {
		t.Fatalf("ReadFileGen = %q gen %d err %v, want v1 gen %d", data, g2, err, g1)
	}

	fs.WriteFile("/d/f", []byte("v2"))
	if got := fs.Gen("/d/f"); got == g1 {
		t.Fatal("write did not move the generation")
	}
	g3 := fs.Gen("/d/f")
	fs.AppendFile("/d/f", []byte("+"))
	if got := fs.Gen("/d/f"); got == g3 {
		t.Fatal("append did not move the generation")
	}

	// ReadDir entries carry the same generations as Stat.
	ents, err := fs.ReadDir("/d")
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if want := fs.Gen("/d/f"); ents[0].Gen != want {
		t.Fatalf("ReadDir gen = %d, want %d", ents[0].Gen, want)
	}

	// Directories and missing files have no generation.
	if got := fs.Gen("/d"); got != 0 {
		t.Fatalf("directory gen = %d, want 0", got)
	}
	if got := fs.Gen("/nope"); got != 0 {
		t.Fatalf("missing file gen = %d, want 0", got)
	}
}

// Devices only carry a generation when they implement GenDevice; a
// plain device reads as gen 0, which srvnet treats as uncacheable.
func TestGenDevice(t *testing.T) {
	fs := New()
	fs.MkdirAll("/dev")
	plain := &testDevice{reply: "x"}
	if err := fs.RegisterDevice("/dev/plain", plain); err != nil {
		t.Fatal(err)
	}
	if got := fs.Gen("/dev/plain"); got != 0 {
		t.Fatalf("plain device gen = %d, want 0", got)
	}
	gd := &genDev{testDevice: testDevice{reply: "y"}, gen: 41}
	if err := fs.RegisterDevice("/dev/gen", gd); err != nil {
		t.Fatal(err)
	}
	if got := fs.Gen("/dev/gen"); got != 41 {
		t.Fatalf("gen device gen = %d, want 41", got)
	}
	data, g, err := fs.ReadFileGen("/dev/gen")
	if err != nil || string(data) != "y" || g != 41 {
		t.Fatalf("ReadFileGen = %q gen %d err %v", data, g, err)
	}
	gd.gen = 42
	if got := fs.Gen("/dev/gen"); got != 42 {
		t.Fatalf("gen device gen = %d after bump, want 42", got)
	}
}

// readAtString reads up to count bytes at off into a fresh buffer.
func readAtString(fs *FS, p string, off, count int64) (string, uint64, error) {
	b := make([]byte, count)
	n, g, err := fs.ReadAt(p, b, off)
	return string(b[:n]), g, err
}

// ReadAt copies the range under the same generation as a full read.
func TestReadAt(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("0123456789"))
	want := fs.Gen("/d/f")

	chunk, g, err := readAtString(fs, "/d/f", 2, 3)
	if err != nil || chunk != "234" || g != want {
		t.Fatalf("ReadAt(2,3) = %q gen %d err %v", chunk, g, err)
	}
	// An offset at or past EOF reads nothing; a range past EOF is short.
	chunk, _, _ = readAtString(fs, "/d/f", 10, 4)
	if len(chunk) != 0 {
		t.Fatalf("ReadAt(10,4) = %q, want empty", chunk)
	}
	chunk, _, _ = readAtString(fs, "/d/f", 8, 100)
	if chunk != "89" {
		t.Fatalf("ReadAt(8,100) = %q", chunk)
	}
}

// ReadAt on a device reads at the requested offset through one handle
// instead of draining the whole device and slicing.
func TestReadAtDevice(t *testing.T) {
	fs := New()
	dev := &testDevice{reply: "abcdefghij"}
	if err := fs.RegisterDevice("/dev/echo", dev); err != nil {
		t.Fatal(err)
	}
	chunk, _, err := readAtString(fs, "/dev/echo", 3, 4)
	if err != nil || chunk != "defg" {
		t.Fatalf("device ReadAt(3,4) = %q err %v", chunk, err)
	}
	if dev.opens != 1 {
		t.Fatalf("device ReadAt opened %d handles, want 1", dev.opens)
	}
	chunk, _, err = readAtString(fs, "/dev/echo", 8, 100)
	if err != nil || chunk != "ij" {
		t.Fatalf("device ReadAt(8,100) = %q err %v", chunk, err)
	}
	chunk, _, err = readAtString(fs, "/dev/echo", 42, 5)
	if err != nil || len(chunk) != 0 {
		t.Fatalf("device ReadAt past EOF = %q err %v", chunk, err)
	}
}

// A regular-file range read copies into the caller's buffer: a later
// write replaces the file's data, and the buffer must not see it.
func TestReadAtCopies(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("immutable"))
	b := make([]byte, 4)
	n, _, err := fs.ReadAt("/d/f", b, 0)
	if err != nil || string(b[:n]) != "immu" {
		t.Fatalf("ReadAt = %q err %v", b[:n], err)
	}
	fs.WriteFile("/d/f", []byte("XXXXXXXXX"))
	if string(b) != "immu" {
		t.Fatalf("range read aliased file data: %q", b)
	}
}
