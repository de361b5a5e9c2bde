package serve

import "testing"

// TestColdMissAllocationBudget bounds the allocations of one cold miss on a
// warm worker: fresh instances, each scheduled by a full LoC-MPS search.
// The budget sits between the current cost (about 0.9k allocations: the
// search, its schedule and the result-cache copy) and the cost with a
// redistribution-cost cache snapshot copied per run (about 4.1k more, one
// per occupied slot), so per-run work that scales with a scratch cache
// instead of with the request trips it.
func TestColdMissAllocationBudget(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	const runs = 4
	// One request warms the worker's scratch; AllocsPerRun makes one
	// more unmeasured call before the measured ones.
	reqs := make([]Request, runs+2)
	for i := range reqs {
		reqs[i] = Request{Graph: testGraph(t, 25, int64(400+i)), Cluster: testClusterP(16)}
	}
	if _, err := svc.Schedule(reqs[0]); err != nil {
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := svc.Schedule(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if st := svc.Stats(); st.Scheduled != runs+2 || st.CacheHits != 0 {
		t.Fatalf("want %d cold runs and no hits, got %+v", runs+2, st)
	}
	t.Logf("%.0f allocations per cold miss", allocs)
	const budget = 2500
	if allocs > budget {
		t.Errorf("%.0f allocations per cold miss, budget %d: is a per-run copy of a scratch cache back?", allocs, budget)
	}
}
