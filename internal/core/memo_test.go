package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
	"locmps/internal/synth"
)

// memoGraph builds a small diamond DAG with enough malleable width to make
// the search iterate (and, with a widened TopFraction, to open a
// multi-candidate §III.C window).
func memoGraph(t testing.TB) *model.TaskGraph {
	t.Helper()
	lin := func(t1 float64) speedup.Profile { return speedup.Linear{T1: t1} }
	dow := func(t1, a float64) speedup.Profile {
		d, err := speedup.NewDowney(t1, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tasks := []model.Task{
		{Name: "src", Profile: dow(20, 8)},
		{Name: "a", Profile: lin(40)},
		{Name: "b", Profile: dow(35, 16)},
		{Name: "c", Profile: dow(30, 4)},
		{Name: "d", Profile: lin(25)},
		{Name: "sink", Profile: dow(20, 8)},
	}
	edges := []model.Edge{
		{From: 0, To: 1, Volume: 4e6}, {From: 0, To: 2, Volume: 2e6},
		{From: 0, To: 3, Volume: 1e6}, {From: 1, To: 4, Volume: 3e6},
		{From: 2, To: 4, Volume: 2e6}, {From: 3, To: 5, Volume: 1e6},
		{From: 4, To: 5, Volume: 4e6},
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func memoCluster() model.Cluster {
	return model.Cluster{P: 8, Bandwidth: 12.5e6, Overlap: true}
}

// memoSum is a one-hop summary whose fields all derive from ms, so a test
// can tell which insert a lookup returned.
func memoSum(ms float64) evalSummary {
	return evalSummary{
		score:   score{makespan: ms},
		cp:      []int{0, 1},
		hopEdge: []int{int(ms)},
		hopComm: []float64{ms},
	}
}

// lookupMakespan returns the makespan memoized for np, or -1 on a miss.
func lookupMakespan(m *allocMemo, np []int) float64 {
	if _, sum, ok := m.lookup(np); ok {
		return sum.score.makespan
	}
	return -1
}

// TestAllocMemoCollisionPath forces every vector onto one fingerprint and
// checks that the full-vector compare still resolves lookups correctly.
func TestAllocMemoCollisionPath(t *testing.T) {
	m := newAllocMemo()
	m.hash = func([]int) uint64 { return 42 } // all vectors collide

	v1, v2 := []int{1, 2, 3}, []int{3, 2, 1}
	h, _, _ := m.lookup(v1)
	m.insert(h, v1, memoSum(1))
	h, _, _ = m.lookup(v2)
	m.insert(h, v2, memoSum(2))
	if len(m.heads) != 1 || len(m.entries) != 2 || m.entries[m.heads[42]].next < 0 {
		t.Fatalf("expected one chain with two entries, got %d heads and %d entries", len(m.heads), len(m.entries))
	}
	if got := lookupMakespan(m, v1); got != 1 {
		t.Errorf("lookup(v1) = %v, want 1", got)
	}
	if got := lookupMakespan(m, v2); got != 2 {
		t.Errorf("lookup(v2) = %v, want 2", got)
	}
	if got := lookupMakespan(m, []int{1, 2, 4}); got != -1 {
		t.Errorf("lookup of unseen vector returned %v under forced collisions", got)
	}
}

// TestAllocMemoInsertIsStable checks that a duplicate insert keeps the
// first summary and that the vector and summary are copied, not aliased.
func TestAllocMemoInsertIsStable(t *testing.T) {
	m := newAllocMemo()
	vec := []int{2, 2}
	h, _, _ := m.lookup(vec)
	first := memoSum(1)
	m.insert(h, vec, first)
	m.insert(h, vec, memoSum(2))
	vec[0] = 9 // caller reuses its buffers
	first.cp[0], first.hopEdge[0], first.hopComm[0] = 7, 7, 7
	_, got, ok := m.lookup([]int{2, 2})
	if !ok || got.score.makespan != 1 {
		t.Fatalf("duplicate insert replaced the original entry (got %+v, hit %v)", got, ok)
	}
	if !reflect.DeepEqual(got, memoSum(1)) {
		t.Errorf("memo aliased the caller's summary: %+v", got)
	}
	if got := lookupMakespan(m, []int{9, 2}); got != -1 {
		t.Errorf("memo aliased the caller's buffer: lookup of mutated vector hit %v", got)
	}
}

func TestFNV1aVectorDistinguishesOrderAndLength(t *testing.T) {
	a, b := fnv1aVector([]int{1, 2}), fnv1aVector([]int{2, 1})
	if a == b {
		t.Error("permuted vectors share a fingerprint")
	}
	if fnv1aVector([]int{1}) == fnv1aVector([]int{1, 0}) {
		t.Error("length is not part of the fingerprint")
	}
}

// TestMemoCacheHitDeterminism runs the same instance with the memo on, off
// and on again: schedules must be bit-identical in every configuration and
// the memoized run must actually report hits with fewer engine invocations.
func TestMemoCacheHitDeterminism(t *testing.T) {
	tg, c := memoGraph(t), memoCluster()

	on := &LoCMPS{AlgorithmName: "LoC-MPS", Engine: DefaultConfig()}
	off := &LoCMPS{AlgorithmName: "LoC-MPS", Engine: DefaultConfig(), DisableMemo: true}

	sOn, err := on.Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	sOff, err := off.Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, sOn, sOff, "memo on vs off")

	stOn, stOff := on.LastStats(), off.LastStats()
	if stOn.CacheHits == 0 {
		t.Errorf("memoized run reported no cache hits: %+v", stOn)
	}
	if stOff.CacheHits != 0 || stOff.CacheMisses != 0 {
		t.Errorf("disabled memo still counted lookups: %+v", stOff)
	}
	if stOn.LoCBSRuns >= stOff.LoCBSRuns {
		t.Errorf("memo saved no engine runs: %d with memo, %d without", stOn.LoCBSRuns, stOff.LoCBSRuns)
	}
	// Hits replace runs one for one: the look-ahead trajectory is identical.
	if got, want := stOn.LoCBSRuns+stOn.CacheHits, stOff.LoCBSRuns; got != want {
		t.Errorf("runs+hits = %d, want the unmemoized run count %d", got, want)
	}

	// A second invocation on the same instance starts a fresh memo and must
	// reproduce both the schedule and the statistics exactly.
	sAgain, err := on.Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, sOn, sAgain, "repeat run")
	if !reflect.DeepEqual(stOn, on.LastStats()) {
		t.Errorf("stats drifted across identical runs: %+v vs %+v", stOn, on.LastStats())
	}
}

// TestScheduleDualConcurrentSpeculation drives ScheduleDual — itself two
// concurrent searches, the data-parallel start run speculatively beside the
// paper's — from several goroutines on one instance, with a widened
// candidate window. Every caller must get the bit-identical schedule, and
// `go test -race` checks the searches share no unguarded state (scratch
// pool, stats, the graph's lazily built tables).
func TestScheduleDualConcurrentSpeculation(t *testing.T) {
	tg, c := memoGraph(t), memoCluster()
	alg := &LoCMPS{AlgorithmName: "LoC-MPS", Engine: DefaultConfig(), TopFraction: 0.5}

	want, err := alg.ScheduleDual(tg, c)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	got := make([]*schedule.Schedule, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = alg.ScheduleDual(tg, c)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		assertSameSchedule(t, want, got[i], "concurrent ScheduleDual")
	}
}

// assertSameSchedule requires bit-identical makespans and placements.
func assertSameSchedule(t *testing.T, a, b *schedule.Schedule, label string) {
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
			t.Fatalf("%s: task %d placement diverged: %v@[%v,%v] vs %v@[%v,%v]",
				label, ti, pa.Procs, pa.Start, pa.Finish, pb.Procs, pb.Start, pb.Finish)
		}
	}
}

// TestSearchAllocationBudget bounds the allocations of one LoC-MPS search
// relative to its LoCBS runs on a fixed 30-task, P=16 instance. A search
// keeps summaries, not schedules: runs write into two reused outputs and
// only a run that beats the best is cloned, so a search allocates well
// under one object per run (about 0.35 when this bound was set; keeping
// every run's schedule costs over 30). The bound is about twice the
// measured figure, so it fails if per-run schedule allocation comes back.
// The Worker pins its scratch so a garbage collection emptying the
// scratch pool cannot charge a cold cost cache to the search.
func TestSearchAllocationBudget(t *testing.T) {
	p := synth.DefaultParams()
	p.Tasks = 30
	p.CCR = 0.1
	p.Seed = 7
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	c := model.Cluster{P: 16, Bandwidth: p.Bandwidth, Overlap: true}
	w := NewWorker()
	defer w.Close()
	alg := New()
	search := func() {
		if _, err := w.Schedule(alg, tg, c); err != nil {
			t.Fatal(err)
		}
	}
	search() // warm the worker's scratch and the graph's tables
	allocs := testing.AllocsPerRun(5, search)
	runs := alg.LastStats().LoCBSRuns
	perRun := allocs / float64(runs)
	t.Logf("%.0f allocations per search, %d LoCBS runs: %.3f per run", allocs, runs, perRun)
	const budget = 0.75
	if perRun > budget {
		t.Errorf("%.3f allocations per LoCBS run, budget %.2f: is every run allocating its schedule again?", perRun, budget)
	}
}
