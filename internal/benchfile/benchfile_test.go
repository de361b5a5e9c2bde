package benchfile

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// gateThreshold is cmd/benchjson's -gate-threshold default.
const gateThreshold = 1.6

type gateFixture struct {
	name string
	gate Gate
	file File[figures]
	fail bool
}

// one builds a file holding a single case; a nil base leaves the case out
// of the baseline, so only absolute rules can fire.
func one(name string, base, cur figures) File[figures] {
	f := File[figures]{Baseline: map[string]figures{}, Current: map[string]figures{name: cur}}
	if base != nil {
		f.Baseline[name] = base
	}
	return f
}

// ratioFixtures are a passing and a failing pair for one ratio rule: the
// worse side moves by 1.5x (within the threshold) or by 2x (past it).
func ratioFixtures(g Gate, field string, better Direction, base float64) []gateFixture {
	pass, fail := base*1.5, base*2
	if better == HigherIsBetter {
		pass, fail = base/1.5, base/2
	}
	return []gateFixture{
		{field + " within threshold", g, one("X", figures{field: base}, figures{field: pass}), false},
		{field + " past threshold", g, one("X", figures{field: base}, figures{field: fail}), true},
	}
}

// ratioRules lists the ratio rows independently of the tables, so a row
// deleted from a table still has fixtures expecting it.
var ratioRules = []struct {
	gate    Gate
	field   string
	better  Direction
	nsFloor bool
}{
	{ServeGate, "warm_p99_ns", LowerIsBetter, true},
	{ServeGate, "net_warm_p99_ns", LowerIsBetter, true},
	{ServeGate, "hedged_p99_ns", LowerIsBetter, true},
	{ServeGate, "hit_speedup_x", HigherIsBetter, false},
	{ServeGate, "cold_schedules_per_sec", HigherIsBetter, false},
	{ServeGate, "quality_ratio", LowerIsBetter, false},
	{StreamGate, "resched_p50_ns", LowerIsBetter, true},
	{StreamGate, "resched_p99_ns", LowerIsBetter, true},
	{StreamGate, "incremental_search_ns", LowerIsBetter, false},
	{StreamGate, "replay_rate_eps", HigherIsBetter, false},
}

func gateFixtures() []gateFixture {
	var fx []gateFixture
	for _, r := range ratioRules {
		fx = append(fx, ratioFixtures(r.gate, r.field, r.better, 2e6)...)
		if r.better == LowerIsBetter {
			// A 4.5x move between sub-millisecond figures: exempt only
			// under the ns floor.
			fx = append(fx, gateFixture{r.field + " below 1 ms", r.gate,
				one("X", figures{r.field: 2e5}, figures{r.field: 9e5}), !r.nsFloor})
		}
	}
	s, st := ServeGate, StreamGate
	return append(fx,
		// The ns floor exempts a pair only while both sides are below it.
		gateFixture{"ns floor crossed", s, one("X", figures{"warm_p99_ns": 2e5}, figures{"warm_p99_ns": 2e6}), true},
		// Truncated deadline cases are exempt from the quality ratio.
		gateFixture{"truncated exempts quality_ratio", s,
			one("D", figures{"quality_ratio": 2.0}, figures{"quality_ratio": 5.0, "truncated": true}), false},
		gateFixture{"untruncated quality_ratio regressed", s,
			one("D", figures{"quality_ratio": 2.0}, figures{"quality_ratio": 5.0, "truncated": false}), true},
		// Absolute bounds hold without a baseline.
		gateFixture{"warm_overhead_x at 1.05", s, one("P", nil, figures{"warm_overhead_x": 1.05}), false},
		gateFixture{"warm_overhead_x above 1.10", s, one("P", nil, figures{"warm_overhead_x": 1.12}), true},
		gateFixture{"speedup_x at 2.5", st, one("S", nil, figures{"speedup_x": 2.5}), false},
		gateFixture{"speedup_x below 2", st, one("S", nil, figures{"speedup_x": 1.9}), true},
		gateFixture{"p50 below p99", st, one("S", nil, figures{"resched_p50_ns": 3e6, "resched_p99_ns": 5e6}), false},
		gateFixture{"p50 above p99", st, one("S", nil, figures{"resched_p50_ns": 6e6, "resched_p99_ns": 5e6}), true},
		// Required flags, each on its own case only.
		gateFixture{"end_bit_identical true", st, one("StreamSteadyPoisson", nil, figures{"end_bit_identical": true}), false},
		gateFixture{"end_bit_identical missing", st, one("StreamSteadyPoisson", nil, figures{}), true},
		gateFixture{"t0_match true", st, one("StreamT0Batch", nil, figures{"t0_match": true}), false},
		gateFixture{"t0_match false", st, one("StreamT0Batch", nil, figures{"t0_match": false}), true},
		gateFixture{"audit_clean true", st, one("StreamChurnFailures", nil, figures{"audit_clean": true}), false},
		gateFixture{"audit_clean missing", st, one("StreamChurnFailures", nil, figures{"replay_rate_eps": 9.0}), true},
		gateFixture{"flags only bind their case", st, one("StreamUSLSweep", nil, figures{}), false},
	)
}

func TestGateRules(t *testing.T) {
	for _, fx := range gateFixtures() {
		failures := fx.gate.apply(fx.file, "f.json", gateThreshold, io.Discard)
		if got := len(failures) > 0; got != fx.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", fx.name, got, fx.fail, failures)
		}
	}
}

// TestEveryRuleRowMatters deletes each row of each gate table in turn: some
// failing fixture must then pass, so no row is dead weight and no row can
// be dropped unnoticed.
func TestEveryRuleRowMatters(t *testing.T) {
	fixtures := gateFixtures()
	for _, g := range []Gate{ServeGate, StreamGate} {
		for i, row := range g.Rules {
			cut := g
			cut.Rules = append(append([]Rule(nil), g.Rules[:i]...), g.Rules[i+1:]...)
			caught := false
			for _, fx := range fixtures {
				if fx.fail && fx.gate.Name == g.Name && len(cut.apply(fx.file, "f.json", gateThreshold, io.Discard)) == 0 {
					caught = true
				}
			}
			if !caught {
				t.Errorf("%s gate row %d (%+v): deleting it changes no fixture verdict", g.Name, i, row)
			}
		}
	}
}

func TestGateVerdictLines(t *testing.T) {
	f := one("X", figures{"warm_p99_ns": 2e6}, figures{"warm_p99_ns": 4e6})
	f.Current["Y"] = figures{"warm_overhead_x": 1.2}
	var out bytes.Buffer
	failures := ServeGate.apply(f, "f.json", gateThreshold, &out)
	if len(failures) != 2 || !strings.Contains(failures[0], "f.json: X warm_p99_ns") ||
		!strings.Contains(failures[1], "f.json: Y warm_overhead_x") {
		t.Fatalf("failures = %q", failures)
	}
	want := "X                                  serve gate FAIL\n" +
		"Y                                  not in f.json baseline; FAIL (absolute checks only)\n"
	if out.String() != want {
		t.Errorf("verdict lines:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestCheckMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	failures, err := ServeGate.Check(filepath.Join(dir, "absent.json"), gateThreshold, &out)
	if err != nil || failures != nil || !strings.Contains(out.String(), "missing; serve gate skipped") {
		t.Errorf("missing file: failures=%v err=%v out=%q", failures, err, out.String())
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"current": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamGate.Check(bad, gateThreshold, io.Discard); err == nil {
		t.Error("malformed file accepted")
	}
}

// TestCommittedFilesPass gates the BENCH files committed at the module root.
func TestCommittedFilesPass(t *testing.T) {
	for _, g := range []Gate{ServeGate, StreamGate} {
		failures, err := g.Check(filepath.Join("..", "..", g.Path), gateThreshold, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) > 0 {
			t.Errorf("committed %s fails its gate:\n  %s", g.Path, strings.Join(failures, "\n  "))
		}
	}
}

type toolResult struct {
	NsPerOp float64 `json:"ns_per_op"`
}

type toolFile struct {
	File[toolResult]
	Extra map[string]float64 `json:"extra"`
}

// rerun is one tool run over path: measure current, keep the previous
// baseline and note, backfill, save. It returns the stale cases.
func rerun(t *testing.T, path, note string, current map[string]toolResult) []string {
	t.Helper()
	out := toolFile{File: File[toolResult]{Note: note, Current: current}, Extra: map[string]float64{"a": 1}}
	out.StampHost()
	var prev toolFile
	if _, err := Load(path, &prev); err != nil {
		t.Fatal(err)
	}
	out.Adopt(prev.File)
	stale := out.Backfill("delete the file to re-baseline")
	if err := Save(path, &out); err != nil {
		t.Fatal(err)
	}
	return stale
}

func TestRerunKeepsBaselineAndNote(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if stale := rerun(t, path, "first note", map[string]toolResult{"A": {NsPerOp: 10}}); stale != nil {
		t.Errorf("fresh file flagged stale: %v", stale)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := rerun(t, path, "second note", map[string]toolResult{"A": {NsPerOp: 7}, "B": {NsPerOp: 3}})
	if stale != nil {
		t.Errorf("re-measured and backfilled cases flagged stale: %v", stale)
	}
	var got toolFile
	if _, err := Load(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Note != "first note" {
		t.Errorf("note = %q, want the first run's", got.Note)
	}
	want := map[string]toolResult{"A": {NsPerOp: 10}, "B": {NsPerOp: 3}}
	if !reflect.DeepEqual(got.Baseline, want) {
		t.Errorf("baseline = %+v, want %+v", got.Baseline, want)
	}
	// A's baseline bytes are exactly those the first run wrote.
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := `"A": {` + "\n" + `      "ns_per_op": 10` + "\n    }"
	if !bytes.Contains(first, []byte(a)) || !bytes.Contains(second, []byte(a)) {
		t.Errorf("baseline entry for A not preserved verbatim:\n%s\n---\n%s", first, second)
	}
	if !bytes.HasSuffix(second, []byte("}\n")) {
		t.Error("file lacks its trailing newline")
	}
	// The envelope's keys come first, in order, then the tool's own.
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(second))
	dec.Token()
	for dec.More() {
		k, _ := dec.Token()
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"note", "cpus", "gomaxprocs", "baseline", "current", "extra"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v, want %v", keys, want)
	}
	// A third run that reproduces B exactly: B's baseline was backfilled by
	// the previous run and never re-measured, so now it is stale.
	stale = rerun(t, path, "third note", map[string]toolResult{"A": {NsPerOp: 8}, "B": {NsPerOp: 3}})
	if !reflect.DeepEqual(stale, []string{"B"}) {
		t.Errorf("stale = %v, want [B]", stale)
	}
}

func TestLoadMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	var f toolFile
	if found, err := Load(filepath.Join(dir, "absent.json"), &f); found || err != nil {
		t.Errorf("missing file: found=%v err=%v", found, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, &f); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed file: err=%v, want an error naming the file", err)
	}
}

// TestHostStamp: a fresh envelope records the host's CPU count and
// GOMAXPROCS, and a file written before the gomaxprocs stamp existed still
// loads, with the width reported as 0 (unknown).
func TestHostStamp(t *testing.T) {
	var f File[toolResult]
	f.StampHost()
	if f.CPUs != runtime.NumCPU() || f.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("stamp cpus=%d gomaxprocs=%d, want %d and %d", f.CPUs, f.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	old := filepath.Join(t.TempDir(), "old.json")
	body := `{"note": "n", "cpus": 1, "baseline": {"A": {"ns_per_op": 1}}, "current": {"A": {"ns_per_op": 2}}}`
	if err := os.WriteFile(old, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var got toolFile
	if found, err := Load(old, &got); !found || err != nil {
		t.Fatalf("file without gomaxprocs: found=%v err=%v", found, err)
	}
	if got.CPUs != 1 || got.GOMAXPROCS != 0 || got.Current["A"].NsPerOp != 2 {
		t.Errorf("loaded %+v, want cpus 1, gomaxprocs 0 and the current snapshot", got.File)
	}
}
