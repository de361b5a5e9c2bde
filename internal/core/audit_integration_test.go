package core_test

// External integration test: every LoCBS-based engine configuration in
// this package must produce schedules the scheduler-independent oracle in
// internal/audit accepts — including the recorded redistribution
// accounting, in both overlap modes and across block sizes. This is the
// bridge between the optimizer-heavy internals and the first-principles
// invariant checks; it lives in package core_test so it can only use the
// same public surface the schedulers' callers do.

import (
	"errors"
	"fmt"
	"testing"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

func buildGraph(t *testing.T, seed int64, ccr float64) *model.TaskGraph {
	t.Helper()
	p := synth.DefaultParams()
	p.Tasks = 14
	p.Seed = seed
	p.CCR = ccr
	p.AMax = 8
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestCoreSchedulersPassAudit(t *testing.T) {
	engines := []struct {
		name string
		mk   func() schedule.Scheduler
	}{
		{"LoC-MPS", func() schedule.Scheduler { return core.New() }},
		{"reference", func() schedule.Scheduler { return core.NewReference() }},
		{"no-backfill", func() schedule.Scheduler { return core.NewNoBackfill() }},
		{"iCASLB", func() schedule.Scheduler { return core.NewICASLB() }},
	}
	for _, overlap := range []bool{false, true} {
		for _, ccr := range []float64{0, 1} {
			tg := buildGraph(t, 21, ccr)
			cl := model.Cluster{P: 6, Bandwidth: 12.5e6, Overlap: overlap}
			for _, eng := range engines {
				name := fmt.Sprintf("%s/overlap=%v/ccr=%g", eng.name, overlap, ccr)
				s, err := eng.mk().Schedule(tg, cl)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r := audit.Check(tg, s, audit.Options{RequireAccounting: true})
				if err := r.Err(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if r.MaxFinish+schedule.Eps < r.LowerBound {
					t.Errorf("%s: makespan %v below lower bound %v", name, r.MaxFinish, r.LowerBound)
				}
			}
		}
	}
}

// A non-default block size changes every redistribution cost; the audit
// must agree with the engine as long as it is told the same block size,
// and disagree when it is not.
func TestAuditTracksBlockSize(t *testing.T) {
	tg := buildGraph(t, 33, 0.2)
	cl := model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: false}
	const block = 4096
	alg := core.New()
	alg.Engine.BlockBytes = block
	s, err := alg.Schedule(tg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.Check(tg, s, audit.Options{BlockBytes: block, RequireAccounting: true}).Err(); err != nil {
		t.Errorf("matching block size rejected: %v", err)
	}
	// With the default 64 KiB the recomputed charges differ, which the
	// accounting check must notice (this seed/CCR pair is chosen so the
	// final placements include cross-layout transfers whose cost depends
	// on block granularity).
	if err := audit.Check(tg, s, audit.Options{RequireAccounting: true}).Err(); err == nil {
		t.Error("audit with mismatched block size found nothing — accounting not actually recomputed?")
	}
}

// TestMemoHitNeverBeatsBestOnStressCorpus runs every search configuration
// over the differential stress harness's corpus and requires that no
// search trips the memo-hit-beats-best invariant (a memoized vector keeps
// no schedule, so the search would fail rather than return a wrong one).
// Memo hits must actually occur, so the invariant is really exercised.
func TestMemoHitNeverBeatsBestOnStressCorpus(t *testing.T) {
	hits := 0
	for i := 0; i < 500; i++ {
		c := audit.CaseAt(1, i)
		tg, cl, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []*core.LoCMPS{core.New(), core.NewNoBackfill(), core.NewICASLB()} {
			if _, err := alg.Schedule(tg, cl); err != nil {
				if errors.Is(err, core.ErrMemoHitBeatsBest) {
					t.Fatalf("case %d {%s}, %s: %v", i, c, alg.Name(), err)
				}
				t.Fatalf("case %d {%s}, %s: unexpected error %v", i, c, alg.Name(), err)
			}
			hits += alg.LastStats().CacheHits
		}
	}
	if hits == 0 {
		t.Fatal("no memo hits over the corpus: the invariant was never checked")
	}
}
