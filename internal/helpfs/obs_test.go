package helpfs

import (
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// statVal extracts the integer value of key from /mnt/help/stats text.
func statVal(t *testing.T, fs *vfs.FS, key string) string {
	t.Helper()
	data, err := fs.ReadFile("/mnt/help/stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k == key {
			return v
		}
	}
	return ""
}

// TestStatsFileCountsOps checks that the per-kind counters behind
// /mnt/help/stats move when the corresponding files are used — and that
// reading the meter does not move it.
func TestStatsFileCountsOps(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("hello")

	if got := statVal(t, fs, "helpfs.body.reads"); got != "0" {
		t.Fatalf("body.reads before = %q, want 0", got)
	}
	if _, err := fs.ReadFile("/mnt/help/1/body"); err != nil {
		t.Fatal(err)
	}
	if got := statVal(t, fs, "helpfs.body.opens"); got != "1" {
		t.Errorf("body.opens = %q, want 1", got)
	}
	if got := statVal(t, fs, "helpfs.body.reads"); got == "0" || got == "" {
		t.Errorf("body.reads = %q, want > 0", got)
	}

	if err := fs.WriteFile("/mnt/help/1/bodyapp", []byte(" world")); err != nil {
		t.Fatal(err)
	}
	if got := statVal(t, fs, "helpfs.bodyapp.writes"); got == "0" || got == "" {
		t.Errorf("bodyapp.writes = %q, want > 0", got)
	}

	if err := fs.WriteFile("/mnt/help/1/ctl", []byte("name /x\n")); err != nil {
		t.Fatal(err)
	}
	if got := statVal(t, fs, "helpfs.ctl.writes"); got == "0" || got == "" {
		t.Errorf("ctl.writes = %q, want > 0", got)
	}

	if _, err := fs.ReadFile("/mnt/help/index"); err != nil {
		t.Fatal(err)
	}
	if got := statVal(t, fs, "helpfs.index.reads"); got == "0" || got == "" {
		t.Errorf("index.reads = %q, want > 0", got)
	}

	// Reading stats itself repeatedly must not inflate any helpfs meter:
	// a monitor polling the file would otherwise distort what it watches.
	// (vfs.lookup does move — the path lookup is real work — so compare
	// only the helpfs.* lines.)
	helpfsLines := func(data []byte) string {
		var keep []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "helpfs.") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	before, _ := fs.ReadFile("/mnt/help/stats")
	after, _ := fs.ReadFile("/mnt/help/stats")
	if helpfsLines(before) != helpfsLines(after) {
		t.Errorf("reading stats moved a helpfs meter:\nbefore: %s\nafter: %s", before, after)
	}

	// Latency histograms recorded the closes.
	hist := h.Obs.Histogram("helpfs.body")
	if hist.Count() == 0 {
		t.Error("helpfs.body histogram has no samples")
	}
}

// TestHistoFilesServeRegistryHistograms checks the /histo directory:
// one file per histogram, in the le_us text format, plus SyncHistograms
// picking up histograms created after attach.
func TestHistoFilesServeRegistryHistograms(t *testing.T) {
	h, fs, svc := attach(t)
	w := h.NewWindow()
	w.Body.SetString("x")
	if _, err := fs.ReadFile("/mnt/help/1/body"); err != nil {
		t.Fatal(err)
	}

	data, err := fs.ReadFile("/mnt/help/histo/helpfs.body")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"count 1", "sum_us", "max_us", "le_us"} {
		if !strings.Contains(text, want) {
			t.Errorf("histo file missing %q:\n%s", want, text)
		}
	}

	// A histogram created after Attach becomes a file on resync.
	h.Obs.Histogram("late.metric").Observe(1)
	if _, err := fs.ReadFile("/mnt/help/histo/late.metric"); err == nil {
		t.Fatal("late.metric visible before SyncHistograms")
	}
	if err := svc.SyncHistograms(); err != nil {
		t.Fatal(err)
	}
	late, err := fs.ReadFile("/mnt/help/histo/late.metric")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(late), "count 1") {
		t.Errorf("late.metric = %q", late)
	}
}

// TestTraceFileServesSpans checks /mnt/help/trace: spans and events
// appear as one line each, newest last, under the history's stamp.
func TestTraceFileServesSpans(t *testing.T) {
	h, fs, _ := attach(t)
	h.Obs.Event("boot", "ok")
	sp := h.Obs.StartSpan("exec", "date")
	sp.End()

	data, err := fs.ReadFile("/mnt/help/trace")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace lines = %d, want 3:\n%s", len(lines), data)
	}
	// Line 0 is the seq stamp scrapers diff to detect missed windows.
	if lines[0] != "# seq 2 oldest 1" {
		t.Errorf("stamp line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "boot") || !strings.Contains(lines[1], "ok") {
		t.Errorf("line 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "exec") || !strings.Contains(lines[2], "date") {
		t.Errorf("line 2 = %q", lines[2])
	}

	// Other events move the stamp but add no lines.
	h.Notify.Publish(1, "body", "gen 2")
	data, err = fs.ReadFile("/mnt/help/trace")
	if err != nil {
		t.Fatal(err)
	}
	if want := "# seq 3 oldest 1\n" + lines[1] + "\n" + lines[2] + "\n"; string(data) != want {
		t.Errorf("after a body event, trace = %q, want %q", data, want)
	}
}

// TestObsFilesWithRegistryDetached: with SetObs(nil) the instrumented
// handles must keep working (nil-safe no-ops); stats and trace then
// serve the empty registry state.
func TestObsFilesWithRegistryDetached(t *testing.T) {
	h, fs, _ := attach(t)
	h.SetObs(nil)
	w := h.NewWindow()
	w.Body.SetString("still works")
	data, err := fs.ReadFile("/mnt/help/1/body")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "still works" {
		t.Errorf("body = %q", data)
	}
	// The synthetic files still serve: they are bound to the registry
	// that existed at attach time, not to h.Obs.
	if _, err := fs.ReadFile("/mnt/help/stats"); err != nil {
		t.Fatal(err)
	}
}

// TestNilRegistryService: a Service over a Help with no registry at all
// must attach without the synthetic files and without panics.
func TestNilRegistryService(t *testing.T) {
	var r *obs.Registry
	if r.StatsText() != "" {
		t.Error("nil registry text not empty")
	}
}

// The journal shows up in /mnt/help/stats like any other subsystem:
// appends, bytes, batches move as the session mutates.
func TestStatsShowJournal(t *testing.T) {
	h, fs, _ := attach(t)
	jw, err := journal.Open(journal.NewMemFS(), journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	h.AttachJournal(jw, 1<<20)

	w := h.NewWindow()
	w.Body.SetString("journaled text")
	h.JournalSweep()
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"journal.appends", "journal.bytes", "journal.batches"} {
		if got := statVal(t, fs, key); got == "" || got == "0" {
			t.Errorf("%s = %q, want > 0", key, got)
		}
	}
}
