package core_test

// Anytime-search integration tests: deterministic MaxIterations budgets,
// monotone quality as the budget grows, audit-clean best-so-far schedules
// at every truncation point, wall-clock deadlines and context
// cancellation. Lives in package core_test (like the audit bridge) so the
// truncated schedules are validated by the scheduler-independent oracle.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

func anytimeCluster() model.Cluster {
	return model.Cluster{P: 6, Bandwidth: 12.5e6, Overlap: true}
}

// sameSchedule requires bit-identical makespans and placements.
func sameSchedule(t *testing.T, a, b *schedule.Schedule, label string) {
	t.Helper()
	if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
		t.Fatalf("%s: makespan %v != %v", label, a.Makespan, b.Makespan)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("%s: %d vs %d placements", label, len(a.Placements), len(b.Placements))
	}
	for ti := range a.Placements {
		pa, pb := a.Placements[ti], b.Placements[ti]
		if !reflect.DeepEqual(pa.Procs, pb.Procs) ||
			math.Float64bits(pa.Start) != math.Float64bits(pb.Start) ||
			math.Float64bits(pa.Finish) != math.Float64bits(pb.Finish) {
			t.Fatalf("%s: task %d placement diverged", label, ti)
		}
	}
}

// auditClean runs the oracle on an anytime result and checks the reported
// bound is honored: makespan >= LowerBound and Ratio = makespan/bound >= 1.
func auditClean(t *testing.T, tg *model.TaskGraph, res *core.AnytimeResult, label string) {
	t.Helper()
	r := audit.Check(tg, res.Schedule, audit.Options{RequireAccounting: true})
	if err := r.Err(); err != nil {
		t.Errorf("%s: audit: %v", label, err)
	}
	if res.LowerBound <= 0 {
		t.Errorf("%s: non-positive lower bound %v", label, res.LowerBound)
	}
	if res.Schedule.Makespan+schedule.Eps < res.LowerBound {
		t.Errorf("%s: makespan %v below certified bound %v", label, res.Schedule.Makespan, res.LowerBound)
	}
	if res.Ratio < 1-1e-12 {
		t.Errorf("%s: quality ratio %v below 1", label, res.Ratio)
	}
}

// TestAnytimeMaxIterationsDeterministic re-runs every iteration budget —
// with the paper's candidate window and a widened one — and demands
// bit-identical schedules and truncation flags.
func TestAnytimeMaxIterationsDeterministic(t *testing.T) {
	tg, cl := buildGraph(t, 11, 0.5), anytimeCluster()
	ctx := context.Background()
	for _, frac := range []float64{0, 0.5} {
		for _, iters := range []int{1, 2, 4, 0} {
			alg := core.New()
			alg.TopFraction = frac
			b := core.Budget{MaxIterations: iters}
			first, err := alg.ScheduleBudget(ctx, tg, cl, b)
			if err != nil {
				t.Fatalf("frac=%v iters=%d: %v", frac, iters, err)
			}
			second, err := alg.ScheduleBudget(ctx, tg, cl, b)
			if err != nil {
				t.Fatalf("frac=%v iters=%d (repeat): %v", frac, iters, err)
			}
			label := "budget repeat"
			sameSchedule(t, first.Schedule, second.Schedule, label)
			if first.Truncated != second.Truncated {
				t.Errorf("frac=%v iters=%d: truncated drifted %v vs %v",
					frac, iters, first.Truncated, second.Truncated)
			}
			auditClean(t, tg, first, label)
		}
	}
}

// TestAnytimeBudgetsAreSerialPrefixes pins the semantics that make
// MaxIterations a useful knob: a budgeted schedule is a pure function of
// the budget — the pool-recycled and the reference (memo and resume off)
// configurations agree bit for bit under every budget, so truncation
// commutes with the search's accelerations — and the unbounded budget is
// exactly Schedule.
func TestAnytimeBudgetsAreSerialPrefixes(t *testing.T) {
	tg, cl := buildGraph(t, 11, 0.5), anytimeCluster()
	ctx := context.Background()
	for _, iters := range []int{1, 3, 0} {
		fast, ref := core.New(), core.NewReference()
		fast.TopFraction, ref.TopFraction = 0.5, 0.5
		a, err := fast.ScheduleBudget(ctx, tg, cl, core.Budget{MaxIterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ref.ScheduleBudget(ctx, tg, cl, core.Budget{MaxIterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, a.Schedule, b.Schedule, "accelerated vs reference under budget")
	}
	alg := core.New()
	full, err := alg.Schedule(tg, cl)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := core.New().ScheduleBudget(ctx, tg, cl, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, full, unbounded.Schedule, "unbounded budget vs Schedule")
	if unbounded.Truncated {
		t.Error("unbounded budget reported Truncated")
	}
}

// TestAnytimeQualityMonotone grows the iteration budget and checks the
// quality bound never worsens: each completed round only improves the
// committed best, so ratio(budget k+1) <= ratio(budget k), ending at the
// full search's ratio.
func TestAnytimeQualityMonotone(t *testing.T) {
	tg, cl := buildGraph(t, 29, 1), anytimeCluster()
	ctx := context.Background()
	budgets := []int{1, 2, 3, 4, 6, 8, 0}
	prev := math.Inf(1)
	var sawTruncated bool
	for _, iters := range budgets {
		res, err := core.New().ScheduleBudget(ctx, tg, cl, core.Budget{MaxIterations: iters})
		if err != nil {
			t.Fatalf("iters=%d: %v", iters, err)
		}
		auditClean(t, tg, res, "monotone sweep")
		if res.Ratio > prev+1e-12 {
			t.Errorf("iters=%d: quality ratio rose to %v from %v with a larger budget", iters, res.Ratio, prev)
		}
		prev = res.Ratio
		sawTruncated = sawTruncated || res.Truncated
		if iters == 0 && res.Truncated {
			t.Error("unbounded run reported Truncated")
		}
	}
	if !sawTruncated {
		t.Error("no budget in the sweep truncated the search; the test exercised nothing")
	}
}

// TestAnytimeDeadline: an already-expired deadline must still return a
// complete, audit-clean schedule (the committed best-so-far, at worst the
// initial allocation), flagged Truncated; a far-future deadline must not
// truncate and must match the unbudgeted search exactly.
func TestAnytimeDeadline(t *testing.T) {
	tg, cl := buildGraph(t, 11, 0.5), anytimeCluster()
	ctx := context.Background()

	past, err := core.New().ScheduleBudget(ctx, tg, cl,
		core.Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !past.Truncated {
		t.Error("expired deadline did not report Truncated")
	}
	auditClean(t, tg, past, "expired deadline")

	future, err := core.New().ScheduleBudget(ctx, tg, cl,
		core.Budget{Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if future.Truncated {
		t.Error("one-hour deadline truncated a sub-second search")
	}
	full, err := core.New().Schedule(tg, cl)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, full, future.Schedule, "far deadline vs full run")
	if past.Schedule.Makespan+schedule.Eps < future.Schedule.Makespan {
		t.Errorf("truncated makespan %v beats the full search's %v",
			past.Schedule.Makespan, future.Schedule.Makespan)
	}
}

// TestAnytimeContextCancelled: cancellation is an abort, not a truncation —
// there is nobody to hand a best-so-far to, so the search returns ctx.Err()
// and no schedule.
func TestAnytimeContextCancelled(t *testing.T) {
	tg, cl := buildGraph(t, 11, 0.5), anytimeCluster()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if res, err := core.New().ScheduleBudget(ctx, tg, cl, core.Budget{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ScheduleBudget on cancelled ctx: res=%v err=%v, want context.Canceled", res, err)
	}
	if s, err := core.New().ScheduleContext(ctx, tg, cl); !errors.Is(err, context.Canceled) {
		t.Errorf("ScheduleContext on cancelled ctx: s=%v err=%v, want context.Canceled", s, err)
	}
}

// TestLowerBoundDominatesSchedules: the certified bound is genuinely below
// every schedule this package produces, and positive for non-trivial
// instances.
func TestLowerBoundDominatesSchedules(t *testing.T) {
	for _, seed := range []int64{11, 21, 29} {
		tg, cl := buildGraph(t, seed, 0.5), anytimeCluster()
		lb, err := core.LowerBound(tg, cl)
		if err != nil {
			t.Fatal(err)
		}
		if lb <= 0 {
			t.Fatalf("seed %d: lower bound %v not positive", seed, lb)
		}
		s, err := core.New().Schedule(tg, cl)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan+schedule.Eps < lb {
			t.Errorf("seed %d: makespan %v below lower bound %v", seed, s.Makespan, lb)
		}
	}
}
