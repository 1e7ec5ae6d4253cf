//go:build !race

// The race detector shadows every byte this test copies, several times
// over; at 64 MiB a body that comes to gigabytes, so it runs in the
// plain pass only.

package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/journal"
)

// A body over journal.MaxRecord is journaled as one splice record of
// continued frames. The session recovers it from the WAL, and again from
// the checkpoint SyncJournal writes.
func TestJournalRecoverBodyOverMaxRecord(t *testing.T) {
	h, fs := world(t)
	// Four-byte runes keep the rune buffers the text engine builds no
	// bigger than the bytes, and put frame boundaries inside runes.
	line := strings.Repeat("\U0001D11E", 15) + "\n"
	data := strings.Repeat(line, journal.MaxRecord/len(line)+1000)
	// Sealed, like a shared template's files, so checkpoints carry the
	// body and not the file too.
	if err := fs.MkdirAll("/logs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/logs/big.log", []byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Seal("/logs"); err != nil {
		t.Fatal(err)
	}
	jfs, jw := attachMemJournal(t, h, 1<<20)
	defer jw.Close()
	w, err := h.OpenFile("/logs/big.log", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "Snarf")
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered := func(from string) {
		t.Helper()
		runtime.GC() // return the last recovery's copies before the next
		h2, _ := world(t)
		if _, err := RecoverSession(h2, jfs); err != nil {
			t.Fatalf("recovering %s: %v", from, err)
		}
		w2 := h2.byID[w.ID]
		if w2 == nil || w2.Body.String() != data {
			t.Fatalf("recovering %s: the body did not come back", from)
		}
	}
	recovered("from the WAL")
	if err := h.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	recovered("from the checkpoint")
}
