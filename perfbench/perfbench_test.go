package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the output must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		if len(defs) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(want))
			return
		}
		for i, d := range defs {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(config{workload: w.Name, seed: 1, seconds: 1, logMiB: 12}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced: each must pass its output checks and print every named metric
// with its unit, and the traced run's spans must nest.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"edit", "remote", "large"} {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			label := name + "/untraced"
			if traced {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				cfg := config{workload: name, seed: heldOutSeed, seconds: 1, trace: traced, logMiB: 12, setups: 2, spans: spans}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, end-to-end metrics are never 0", d.name, m.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
				if traced {
					checkSpans(t, spans)
				}
			})
		}
	}
}

// checkSpans reads a span file and checks that every child span lies
// inside its parent and shares its trace id, and that each action
// (trace id > 0) has exactly one root span.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	roots := map[int32]int{}
	for i, s := range spans {
		if s.ID != int32(i) {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Trace]++
			continue
		}
		p := spans[s.Parent]
		if p.Trace != s.Trace {
			t.Errorf("span %d (%s) in trace %d, its parent %s in trace %d", i, s.Name, s.Trace, p.Name, p.Trace)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] outside its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	last := spans[len(spans)-1].Trace
	for id := int32(1); id <= last; id++ {
		if roots[id] != 1 {
			t.Errorf("trace %d has %d root spans, want 1", id, roots[id])
		}
	}
}
