package core

import (
	"math/rand"
	"testing"

	"locmps/internal/model"
)

// chartStatesEqual deep-compares the observable state of two charts: the
// per-processor busy lists and the boundary multiset. The undo logs are
// deliberately excluded (a rolled-back chart keeps a shorter log than a
// fresh replay that never recorded).
func chartStatesEqual(t *testing.T, got, want *chart, label string) {
	t.Helper()
	if got.p != want.p || got.backfill != want.backfill {
		t.Fatalf("%s: shape (p=%d bf=%v) vs (p=%d bf=%v)",
			label, got.p, got.backfill, want.p, want.backfill)
	}
	for proc := 0; proc < got.p; proc++ {
		g, w := got.busy[proc], want.busy[proc]
		if len(g) != len(w) {
			t.Fatalf("%s: proc %d has %d intervals, want %d", label, proc, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: proc %d interval %d = %v, want %v", label, proc, i, g[i], w[i])
			}
		}
	}
	if len(got.ends) != len(want.ends) {
		t.Fatalf("%s: %d boundaries, want %d", label, len(got.ends), len(want.ends))
	}
	for i := range got.ends {
		if got.ends[i] != want.ends[i] {
			t.Fatalf("%s: boundary %d = %v, want %v", label, i, got.ends[i], want.ends[i])
		}
	}
}

type shadowOp struct {
	proc       int
	start, end float64
}

// replayShadow builds a fresh chart holding exactly the given reservations,
// applied in order.
func replayShadow(p int, backfill bool, ops []shadowOp) *chart {
	c := newChart(p, backfill)
	for _, op := range ops {
		c.reserve(op.proc, op.start, op.end)
	}
	return c
}

// TestChartRollbackRebuildDeterministic pins the forward-rebuild shortcut:
// rolling a long log back to a short kept prefix must leave the chart
// bit-identical to a fresh replay of that prefix.
func TestChartRollbackRebuildDeterministic(t *testing.T) {
	for _, backfill := range []bool{true, false} {
		c := newChart(4, backfill)
		c.record()
		r := rand.New(rand.NewSource(11))
		var shadow []shadowOp
		for i := 0; i < 100; i++ {
			proc := r.Intn(4)
			start := c.frontier(proc) + r.Float64()*3
			end := start + 0.5 + r.Float64()*2
			c.reserve(proc, start, end)
			shadow = append(shadow, shadowOp{proc, start, end})
		}
		if !c.rebuildOK {
			t.Fatalf("backfill=%v: chart recorded from empty should allow rebuild", backfill)
		}
		c.rollback(10) // 2*10 < 100: takes the rebuild path
		chartStatesEqual(t, c, replayShadow(4, backfill, shadow[:10]), "rebuild")
		if got := c.mark(); got != 10 {
			t.Fatalf("backfill=%v: log has %d ops after rollback(10)", backfill, got)
		}
	}
}

// TestChartRollbackMatchesReplayProperty drives random interleavings of
// reserves (frontier extensions and, with backfill, hole fills) and
// rollbacks to random marks, checking after every rollback that the live
// chart equals a fresh replay of the surviving reservation prefix. Both the
// newest-first pop path and the forward-rebuild path are exercised (the
// mark's position relative to half the log decides which one runs).
func TestChartRollbackMatchesReplayProperty(t *testing.T) {
	for _, backfill := range []bool{true, false} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			const p = 5
			c := newChart(p, backfill)
			c.record()
			var shadow []shadowOp

			for step := 0; step < 400; step++ {
				if r.Float64() < 0.72 || len(shadow) == 0 {
					proc := r.Intn(p)
					var start float64
					if backfill && r.Float64() < 0.5 {
						// Aim into the chart body; keep only hits on idle spans.
						start = r.Float64() * 40
					} else {
						start = c.frontier(proc) + r.Float64()*4
					}
					until, free := c.freeAt(proc, start)
					if !free {
						continue
					}
					end := start + 0.25 + r.Float64()*3
					if end > until {
						end = until
					}
					if end <= start {
						continue
					}
					c.reserve(proc, start, end)
					shadow = append(shadow, shadowOp{proc, start, end})
					continue
				}
				mark := r.Intn(len(shadow) + 1)
				c.rollback(mark)
				shadow = shadow[:mark]
				chartStatesEqual(t, c, replayShadow(p, backfill, shadow),
					"rollback")
			}
		}
	}
}

// TestIncrementalPlacerMatchesScratch re-runs the placement engine through
// one shared scratch with a resume key, perturbing the allocation vector a
// little between runs — the exact access pattern of the LoC-MPS look-ahead —
// and checks every schedule is bit-identical to a from-scratch LoCBS run.
func TestIncrementalPlacerMatchesScratch(t *testing.T) {
	cfg := DefaultConfig()
	run := func(t *testing.T, tg *model.TaskGraph, cluster model.Cluster, seed int64) {
		t.Helper()
		r := rand.New(rand.NewSource(seed))
		n := tg.N()
		np := make([]int, n)
		for i := range np {
			np[i] = 1
		}
		sc := getScratch()
		defer putScratch(sc)
		key := searchEpoch.Add(1)
		resumed := false
		for round := 0; round < 25; round++ {
			// Perturb a couple of widths, as the look-ahead does.
			for k := 0; k < 1+r.Intn(2); k++ {
				ti := r.Intn(n)
				np[ti] = 1 + r.Intn(cluster.P)
			}
			inc, err := runPlacer(tg, cluster, np, cfg, Preset{}, sc, key, sc.output())
			if err != nil {
				t.Fatalf("round %d: incremental: %v", round, err)
			}
			resumed = resumed || sc.lastResumed
			fresh, err := LoCBS(tg, cluster, np, cfg)
			if err != nil {
				t.Fatalf("round %d: scratch: %v", round, err)
			}
			assertSameSchedule(t, inc, fresh, "incremental vs scratch")
		}
		if !resumed {
			t.Error("no run resumed from the trace; the incremental path was never exercised")
		}
	}

	t.Run("diamond", func(t *testing.T) {
		run(t, memoGraph(t), memoCluster(), 3)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			g := rand.New(rand.NewSource(100 + seed))
			tg := randomTaskGraph(g, 12+g.Intn(10), 3)
			run(t, tg, model.Cluster{P: 8, Bandwidth: 12.5e6, Overlap: true}, seed)
		}
	})
}
