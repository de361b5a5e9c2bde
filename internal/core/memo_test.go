package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
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

// TestAllocMemoCollisionPath forces every vector onto one fingerprint and
// checks that the full-vector compare still resolves lookups correctly.
func TestAllocMemoCollisionPath(t *testing.T) {
	m := newAllocMemo()
	m.hash = func([]int) uint64 { return 42 } // all vectors collide

	s1, s2 := &schedule.Schedule{Makespan: 1}, &schedule.Schedule{Makespan: 2}
	v1, v2 := []int{1, 2, 3}, []int{3, 2, 1}
	m.insert(v1, s1)
	m.insert(v2, s2)
	if len(m.buckets) != 1 || len(m.buckets[42]) != 2 {
		t.Fatalf("expected one bucket with two chained entries, got %d buckets", len(m.buckets))
	}
	if got := m.lookupSched(v1); got != s1 {
		t.Errorf("lookup(v1) = %v, want s1", got)
	}
	if got := m.lookupSched(v2); got != s2 {
		t.Errorf("lookup(v2) = %v, want s2", got)
	}
	if got := m.lookupSched([]int{1, 2, 4}); got != nil {
		t.Errorf("lookup of unseen vector returned %v under forced collisions", got)
	}
}

// TestAllocMemoInsertIsStable checks that a duplicate insert keeps the first
// schedule and that the vector is copied, not aliased.
func TestAllocMemoInsertIsStable(t *testing.T) {
	m := newAllocMemo()
	s1, s2 := &schedule.Schedule{Makespan: 1}, &schedule.Schedule{Makespan: 2}
	vec := []int{2, 2}
	m.insert(vec, s1)
	m.insert(vec, s2)
	vec[0] = 9 // caller reuses its buffer
	if got := m.lookupSched([]int{2, 2}); got != s1 {
		t.Errorf("duplicate insert replaced the original entry (got %v)", got)
	}
	if got := m.lookupSched([]int{9, 2}); got != nil {
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
