package benchfile

import (
	"fmt"
	"io"
)

// Direction says which way a gated figure improves.
type Direction int

const (
	// Absolute rules check current alone, never against the baseline.
	Absolute Direction = iota
	// LowerIsBetter figures (latencies) fail when current exceeds
	// threshold x baseline.
	LowerIsBetter
	// HigherIsBetter figures (rates, speedups) fail when baseline exceeds
	// threshold x current.
	HigherIsBetter
)

// floorNs exempts sub-millisecond latency pairs from ratio rules marked
// NsFloor: a figure that small is one preempted goroutine away from any
// ratio, so gating it would only gate the host's scheduler.
const floorNs = 1e6

// Rule is one row of a gate table. Ratio rules (Better set) compare a
// case's current figure against its baseline and skip the pair unless both
// sides are positive numbers; the other columns check current alone and
// apply even to cases with no baseline yet.
type Rule struct {
	// Case limits the rule to one case; empty applies it to every case.
	Case  string
	Field string
	// Better selects a ratio rule against the baseline.
	Better Direction
	// NsFloor exempts a ratio pair when both sides are below floorNs.
	NsFloor bool
	// SkipIf names a flag field: when current has it true the rule is
	// skipped.
	SkipIf string
	// Min and Max bound current's figure (0 = no bound).
	Min, Max float64
	// Required demands that current's Field is the JSON value true.
	Required bool
	// NotAbove names a field current's Field may not exceed (p50 <= p99).
	NotAbove string
}

// Gate is the rule table of one bench file.
type Gate struct {
	Name  string // label of the printed verdict lines
	Path  string // the file, relative to the module root
	Rules []Rule
}

// ServeGate audits BENCH_serve.json, written by cmd/loadgen. Tail
// latencies gate upward and speedups and rates downward. quality_ratio is
// exempt on a truncated deadline case: a deadline that actually cut the
// search makes it a function of how often the host preempted the worker
// inside the budget. warm_overhead_x is the portfolio routing price, at
// most 10% over calling the winning engine directly.
var ServeGate = Gate{Name: "serve", Path: "BENCH_serve.json", Rules: []Rule{
	{Field: "warm_p99_ns", Better: LowerIsBetter, NsFloor: true},
	{Field: "net_warm_p99_ns", Better: LowerIsBetter, NsFloor: true},
	{Field: "hedged_p99_ns", Better: LowerIsBetter, NsFloor: true},
	{Field: "hit_speedup_x", Better: HigherIsBetter},
	{Field: "cold_schedules_per_sec", Better: HigherIsBetter},
	{Field: "quality_ratio", Better: LowerIsBetter, SkipIf: "truncated"},
	{Field: "warm_overhead_x", Max: 1.10},
}}

// StreamGate audits BENCH_stream.json, written by cmd/streamgen. The
// invariant flags are only ever written true, so an absent or false flag
// means a broken run or an edited file. The steady case's incremental
// search must beat scratch rescheduling at least 2x.
var StreamGate = Gate{Name: "stream", Path: "BENCH_stream.json", Rules: []Rule{
	{Case: "StreamSteadyPoisson", Field: "end_bit_identical", Required: true},
	{Case: "StreamT0Batch", Field: "t0_match", Required: true},
	{Case: "StreamChurnFailures", Field: "audit_clean", Required: true},
	{Field: "speedup_x", Min: 2},
	{Field: "resched_p50_ns", NotAbove: "resched_p99_ns"},
	{Field: "resched_p50_ns", Better: LowerIsBetter, NsFloor: true},
	{Field: "resched_p99_ns", Better: LowerIsBetter, NsFloor: true},
	{Field: "incremental_search_ns", Better: LowerIsBetter},
	{Field: "replay_rate_eps", Better: HigherIsBetter},
}}

// figures are one case's values as decoded from a bench file: JSON numbers
// are float64, flags bool.
type figures = map[string]any

// Check audits the committed file at path against g's table, writing one
// verdict line per case to w, and returns the failure messages. Ratio
// rules fail past threshold. A missing file is skipped; a malformed one is
// an error. Stale cases only warn.
func (g Gate) Check(path string, threshold float64, w io.Writer) ([]string, error) {
	var f File[figures]
	if found, err := Load(path, &f); err != nil {
		return nil, err
	} else if !found {
		fmt.Fprintf(w, "%-34s missing; %s gate skipped\n", path, g.Name)
		return nil, nil
	}
	failures := g.apply(f, path, threshold, w)
	warnStale(f.Stale(nil), "delete "+path+" to re-baseline")
	return failures, nil
}

func (g Gate) apply(f File[figures], path string, threshold float64, w io.Writer) []string {
	var failures []string
	for _, name := range sortedKeys(f.Current) {
		cur := f.Current[name]
		base, hasBase := f.Baseline[name]
		before := len(failures)
		fail := func(format string, args ...any) {
			failures = append(failures, fmt.Sprintf("%s: %s ", path, name)+fmt.Sprintf(format, args...))
		}
		for _, r := range g.Rules {
			if r.Case != "" && r.Case != name || flag(cur, r.SkipIf) {
				continue
			}
			c, okC := number(cur, r.Field)
			if r.Required && !flag(cur, r.Field) {
				fail("%s is not true — invariant broken or file edited", r.Field)
			}
			if okC && r.Max > 0 && c > r.Max {
				fail("%s %.4g exceeds the absolute bound %.4g", r.Field, c, r.Max)
			}
			if okC && r.Min > 0 && c < r.Min {
				fail("%s %.4g below the absolute floor %.4g", r.Field, c, r.Min)
			}
			if top, ok := number(cur, r.NotAbove); okC && ok && c > top {
				fail("%s %.4g exceeds %s %.4g", r.Field, c, r.NotAbove, top)
			}
			b, okB := number(base, r.Field)
			if r.Better == Absolute || !okB || !okC || b <= 0 || c <= 0 ||
				r.NsFloor && b < floorNs && c < floorNs {
				continue
			}
			ratio := c / b
			if r.Better == HigherIsBetter {
				ratio = b / c
			}
			if ratio > threshold {
				fail("%s %.4g vs baseline %.4g is %.2fx worse (threshold %.2fx)", r.Field, c, b, ratio, threshold)
			}
		}
		status := "ok"
		if len(failures) > before {
			status = "FAIL"
		}
		if hasBase {
			fmt.Fprintf(w, "%-34s %s gate %s\n", name, g.Name, status)
		} else {
			fmt.Fprintf(w, "%-34s not in %s baseline; %s (absolute checks only)\n", name, path, status)
		}
	}
	return failures
}

// number reads field as a JSON number; absent fields and non-numbers
// report false.
func number(c figures, field string) (float64, bool) {
	v, ok := c[field].(float64)
	return v, ok
}

// flag reads field as a JSON bool; absent fields and non-bools read false.
func flag(c figures, field string) bool {
	v, _ := c[field].(bool)
	return v
}
