// Package report generates the evaluation tables of EXPERIMENTS.md. Each
// function reproduces one of the paper's quantified claims against the
// live system and writes a human-readable table; cmd/helpbench is a thin
// wrapper. Keeping the generators here makes every table's content
// testable.
package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/session"
	"repro/internal/world"
)

// Clicks (T1) replays the debugging session and reports the interaction
// cost of every step, checking that the keyboard stayed untouched.
func Clicks(w io.Writer, scrW, scrH int) error {
	fmt.Fprintln(w, "T1. Interaction cost per session step (paper: \"Through this entire")
	fmt.Fprintln(w, "    demo I haven't yet touched the keyboard.\")")
	fmt.Fprintln(w)
	s, err := session.New(scrW, scrH)
	if err != nil {
		return err
	}
	if err := s.RunDebugSession(); err != nil {
		return err
	}
	fmt.Fprintf(w, "    %-6s %-55s %8s %6s %6s\n", "step", "action", "presses", "keys", "travel")
	prevPresses, prevTravel := 0, 0
	for _, st := range s.Steps {
		fmt.Fprintf(w, "    %-6s %-55s %8d %6d %6d\n",
			st.Name, st.Desc, st.Metrics.Presses-prevPresses,
			st.Metrics.Keystrokes, st.Metrics.Travel-prevTravel)
		prevPresses = st.Metrics.Presses
		prevTravel = st.Metrics.Travel
	}
	last := s.Last().Metrics
	fmt.Fprintf(w, "\n    total: %d presses, %d keystrokes, %d cells of travel\n",
		last.Presses, last.Keystrokes, last.Travel)
	if last.Keystrokes == 0 {
		fmt.Fprintln(w, "    KEYBOARD UNTOUCHED — the paper's claim holds.")
	} else {
		fmt.Fprintln(w, "    KEYBOARD USED — claim violated!")
	}
	return nil
}

// Interaction (T2) prices the standard task suite under help, the pop-up
// window system, the typed shell, and the no-defaults ablation.
func Interaction(w io.Writer) error {
	fmt.Fprintln(w, "T2. Interaction cost per task: help vs a pop-up-menu window system")
	fmt.Fprintln(w, "    vs a typed shell, plus the ablation with help's automation")
	fmt.Fprintln(w, "    rules turned off.")
	fmt.Fprintln(w)
	costs := baseline.Table(baseline.StandardTasks())
	for _, t := range baseline.StandardTasks() {
		costs = append(costs, baseline.HelpCostNoDefaults(t))
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].Task < costs[j].Task })
	for _, c := range costs {
		fmt.Fprintln(w, "    "+c.String())
	}
	sums := baseline.Summary(costs)
	models := make([]string, 0, len(sums))
	for m := range sums {
		models = append(models, m)
	}
	sort.Slice(models, func(i, j int) bool { return sums[models[i]] < sums[models[j]] })
	fmt.Fprintln(w)
	for _, m := range models {
		fmt.Fprintf(w, "    total %-16s %4d gestures\n", m, sums[m])
	}
	return nil
}

// UsesGrep (T3) compares the C browser against grep on the paper's tree.
func UsesGrep(w io.Writer) error {
	fmt.Fprintln(w, "T3. uses vs grep on /usr/rob/src/help (paper: grep n would report")
	fmt.Fprintln(w, "    \"every occurrence of the letter n in the program\").")
	fmt.Fprintln(w)
	wld, err := world.Build(80, 24)
	if err != nil {
		return err
	}
	for _, ident := range []string{"n", "fn", "snarf", "pages", "textinsert", "lookup", "errs"} {
		res, err := baseline.UsesVsGrep(wld.FS, wld.Shell, world.SrcDir, ident)
		if err != nil {
			fmt.Fprintf(w, "    ident=%-10s (%v)\n", ident, err)
			continue
		}
		fmt.Fprintln(w, "    "+res.String())
	}
	return nil
}

// Size (T4) reports line counts and the zero-UI tool audit. root is the
// repository root for the Go line counts.
func Size(w io.Writer, root string) error {
	fmt.Fprintln(w, "T4. Code size (paper: help is \"4300 lines of C\"; applications need")
	fmt.Fprintln(w, "    no user-interface code at all).")
	fmt.Fprintln(w)
	// Files of core and helpfs for features the paper's help does not
	// have — the journal, the event bus, instrumentation, paged bodies and
	// the file service's panic guard — count in a row of their own, so
	// the core row compares like with like.
	extras := []string{
		"internal/core/journal.go", "internal/core/notify.go", "internal/core/obs.go",
		"internal/core/paged.go", "internal/helpfs/guard.go", "internal/helpfs/obs.go",
	}
	skip := map[string]bool{}
	for _, f := range extras {
		skip[filepath.Join(root, f)] = true
	}
	groups := []struct {
		name  string
		paths []string // directories, or single Go files
	}{
		{"help core (core+helpfs)", []string{"internal/core", "internal/helpfs"}},
		{"help core, beyond paper", extras},
		{"substrates", []string{
			"internal/geom", "internal/draw", "internal/text", "internal/frame",
			"internal/event", "internal/vfs", "internal/shell", "internal/userland",
			"internal/proc", "internal/adb", "internal/cc", "internal/mail",
			"internal/helptool", "internal/srvnet",
		}},
		{"evaluation", []string{"internal/world", "internal/session", "internal/baseline", "internal/report"}},
	}
	for _, g := range groups {
		total := 0
		for _, p := range g.paths {
			n, err := countGoLines(filepath.Join(root, p), skip)
			if err != nil {
				return err
			}
			total += n
		}
		fmt.Fprintf(w, "    %-26s %6d lines of Go (non-test)\n", g.name, total)
	}
	fmt.Fprintln(w, "    paper's help              ~4300 lines of C")
	fmt.Fprintln(w)

	wld, err := world.Build(80, 24)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "    tool scripts (no UI code in any of them):")
	for _, dir := range []string{"/help/edit", "/help/cbr", "/help/db", "/help/mail"} {
		ents, err := wld.FS.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			data, _ := wld.FS.ReadFile(dir + "/" + e.Name)
			lines := strings.Count(string(data), "\n")
			uiWords := 0
			for _, bad := range []string{"mouse", "kbd", "click", "screen", "pixel"} {
				if strings.Contains(string(data), bad) {
					uiWords++
				}
			}
			fmt.Fprintf(w, "      %-22s %3d lines, UI references: %d\n", dir+"/"+e.Name, lines, uiWords)
		}
	}
	return nil
}

// countGoLines counts the lines of path, one Go file, or of the non-test
// Go files in path, a directory, less those in skip.
func countGoLines(path string, skip map[string]bool) (int, error) {
	files := []string{path}
	if !strings.HasSuffix(path, ".go") {
		entries, err := os.ReadDir(path)
		if os.IsNotExist(err) {
			return 0, nil
		} else if err != nil {
			return 0, err
		}
		files = files[:0]
		for _, e := range entries {
			p := filepath.Join(path, e.Name())
			if !e.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") && !skip[p] {
				files = append(files, p)
			}
		}
	}
	total := 0
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		total += strings.Count(string(data), "\n")
	}
	return total, nil
}

// Placement (T5) compares the placement heuristic against naive policies.
func Placement(w io.Writer) error {
	fmt.Fprintln(w, "T5. Window placement: the paper's heuristic vs naive policies")
	fmt.Fprintln(w, "    (column height 48, 30-line bodies).")
	fmt.Fprintln(w)
	for _, r := range baseline.PlacementSweep([]int{2, 4, 8, 16, 32}, 48, 30) {
		fmt.Fprintln(w, "    "+r.String())
	}
	return nil
}

// Connectivity (T7) counts pointable tokens on screen across the session.
func Connectivity(w io.Writer, scrW, scrH int) error {
	fmt.Fprintln(w, "T7. Connectivity: tokens on screen per session step (paper: \"a kind")
	fmt.Fprintln(w, "    of exponential connectivity results\"; compare Figure 4 to 11).")
	fmt.Fprintln(w)
	s, err := session.New(scrW, scrH)
	if err != nil {
		return err
	}
	if err := s.RunDebugSession(); err != nil {
		return err
	}
	for _, st := range s.Steps {
		n := CountTokens(st.Screen)
		bar := strings.Repeat("#", n/12)
		fmt.Fprintf(w, "    %-6s %4d tokens %s\n", st.Name, n, bar)
	}
	return nil
}

// CountTokens counts whitespace-separated tokens on a rendered screen,
// each "a potential command or argument for a command".
func CountTokens(screen string) int {
	n := 0
	for _, line := range strings.Split(screen, "\n") {
		n += len(strings.Fields(line))
	}
	return n
}

// Stats (T8) replays the debugging session and snapshots the
// observability registry — the same flat text a script reads from
// /mnt/help/stats — so a bench run records what the system did, not
// just how long it took.
func Stats(w io.Writer, scrW, scrH int) error {
	fmt.Fprintln(w, "T8. Observability snapshot after the debugging session")
	fmt.Fprintln(w, "    (the contents of /mnt/help/stats; histograms under /mnt/help/histo)")
	fmt.Fprintln(w)
	s, err := session.New(scrW, scrH)
	if err != nil {
		return err
	}
	if err := s.RunDebugSession(); err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSpace(s.H.Obs.StatsText()), "\n") {
		fmt.Fprintf(w, "    %s\n", line)
	}
	return nil
}
