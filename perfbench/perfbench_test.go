package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkFile(t)
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestRepeatabilityReport runs each BENCHMARK.json workload untraced once
// and traced twice on one seed. It fails on any correctness problem or when a
// deterministic end-to-end metric (quality) differs between runs, and it
// reports, without failing:
//
//   - every per-layer counter whose two traced values differ: only the
//     counters that repeat exactly can carry a count-based claim;
//   - the tracing overhead, the traced run's ops_per_cpu_s and
//     op_cpu_p50_s against the untraced run's.
func TestRepeatabilityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range loadBenchmarkFile(t).Workloads {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			run := func(trace bool) *outcome {
				e := &env{cfg: config{workload: name, seed: 7, seconds: 1, workdir: t.TempDir()}}
				if trace {
					e.tr = newTracer()
				}
				out, err := workloads[name](e)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.problems) > 0 {
					t.Fatalf("incorrect run: %v", out.problems)
				}
				return out
			}
			plain, a, b := run(false), run(true), run(true)
			for _, o := range []*outcome{a, b} {
				if o.e2e["quality"] != plain.e2e["quality"] {
					t.Errorf("quality differs between runs of one seed: %v vs %v", o.e2e["quality"], plain.e2e["quality"])
				}
			}
			var differ []string
			for _, d := range perLayer {
				if !isCounter(d) || a.layer[d.Name] == b.layer[d.Name] {
					continue
				}
				differ = append(differ, d.Name)
				t.Logf("counter differs: %-32s %g vs %g", d.Name, a.layer[d.Name], b.layer[d.Name])
			}
			t.Logf("%d counters differ between two traced runs: %v", len(differ), differ)
			for _, m := range []string{"ops_per_cpu_s", "op_cpu_p50_s"} {
				t.Logf("tracing overhead: %s traced %.6g untraced %.6g (traced - untraced = %+.6g)",
					m, a.e2e[m], plain.e2e[m], a.e2e[m]-plain.e2e[m])
			}
		})
	}
}

// isCounter selects the per-layer metrics that count work: counts, and
// ratios of counts. cpu_per_wall is a ratio of times.
func isCounter(d metricDef) bool {
	return d.Unit == "count" || (d.Unit == "ratio" && d.Name != "proc.cpu_per_wall")
}

// TestStreamChurnEndState requires the drained stream-churn end state to
// pass the audit with full accounting. It fails on seed 3 (seeds 1 and 2
// pass, 4 fails too): the end state double-books processors although
// every plan emitted along the way passed the same audit. The scenario
// without failures and resizes fails the same way on seed 2, also in the
// stream's Scratch mode, so the fault is in the stream layer, not in the
// incremental search.
func TestStreamChurnEndState(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a whole stream")
	}
	out, err := runStream(&env{cfg: config{workload: "stream-churn", seed: 3, seconds: 1, workdir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.problems {
		t.Error(p)
	}
}
