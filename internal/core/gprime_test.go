package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

// oracleCP is the materialized reference for the G' kernel:
// Schedule.CriticalPath when edges carry their charges, and the same
// cloned schedule-DAG with zero edge weights for iCASLB's view.
func oracleCP(t *testing.T, s *schedule.Schedule, tg *model.TaskGraph, commAware bool) (float64, []int) {
	t.Helper()
	if commAware {
		length, path, err := s.CriticalPath(tg)
		if err != nil {
			t.Fatal(err)
		}
		return length, path
	}
	vw := func(v int) float64 { return tg.ExecTime(v, s.Placements[v].NP()) }
	length, path, err := graph.CriticalPath(s.ScheduleDAG(tg), vw, func(u, v int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return length, path
}

// checkKernel runs the kernel on s and requires its length, path, hop ids
// and hop charges to match the oracle exactly. It returns the number of
// pseudo-edges in G' and of pseudo-edge hops on the path.
func checkKernel(t *testing.T, g *gPrime, s *schedule.Schedule, tg *model.TaskGraph, commAware bool, label string) (pseudo, pseudoHops int) {
	t.Helper()
	np := make([]int, tg.N())
	for v, pl := range s.Placements {
		np[v] = pl.NP()
	}
	length, err := g.run(s, tg, tg.Tables(s.Cluster.P), np, commAware)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantLen, wantPath := oracleCP(t, s, tg, commAware)
	if math.Float64bits(length) != math.Float64bits(wantLen) || !reflect.DeepEqual(g.path, wantPath) {
		t.Fatalf("%s: kernel CP %v (len %v), oracle %v (len %v)", label, g.path, length, wantPath, wantLen)
	}
	if len(g.hopEdge) != len(g.path)-1 || len(g.hopComm) != len(g.path)-1 {
		t.Fatalf("%s: %d hop ids and %d charges for a %d-vertex path", label, len(g.hopEdge), len(g.hopComm), len(g.path))
	}
	gp := s.ScheduleDAG(tg)
	for i, id := range g.hopEdge {
		u, v := g.path[i], g.path[i+1]
		if !gp.HasEdge(u, v) {
			t.Fatalf("%s: hop %d->%d is not an edge of G'", label, u, v)
		}
		wantID, real := tg.EdgeID(u, v)
		switch {
		case real && (id != wantID || g.hopComm[i] != s.CommID(wantID)):
			t.Fatalf("%s: hop %d->%d carries id %d charge %v, want %d and %v", label, u, v, id, g.hopComm[i], wantID, s.CommID(wantID))
		case !real && (id != -1 || g.hopComm[i] != 0):
			t.Fatalf("%s: pseudo hop %d->%d carries id %d charge %v", label, u, v, id, g.hopComm[i])
		case !real:
			pseudoHops++
		}
	}
	return len(g.pseudoFrom), pseudoHops
}

// tiedTaskGraph is randomTaskGraph with identical linear tasks and no
// data, so many tasks finish together and critical-path walks meet ties
// between successors, where the successor order decides the path.
func tiedTaskGraph(r *rand.Rand, n, maxDeg int) *model.TaskGraph {
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = model.Task{Name: "t", Profile: speedup.Linear{T1: 12}}
	}
	var edges []model.Edge
	for v := 1; v < n; v++ {
		seen := map[int]bool{}
		for k := r.Intn(maxDeg); k > 0; k-- {
			if u := r.Intn(v); !seen[u] {
				seen[u] = true
				edges = append(edges, model.Edge{From: u, To: v})
			}
		}
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		panic(err)
	}
	return tg
}

// TestGPrimeKernelMatchesOracle is the kernel's differential test: on
// randomized graphs and allocations, under every search configuration and
// under a preset with busy frontiers and slow nodes, the flat kernel must
// reproduce Schedule.CriticalPath vertex for vertex. Small clusters force
// resource waits, and the test requires that pseudo-edges actually occur,
// on the graph and on the critical path, so it cannot pass vacuously.
// Every other instance uses identical tasks, so that tied successors make
// the pseudo-edge order matter.
func TestGPrimeKernelMatchesOracle(t *testing.T) {
	var g gPrime
	pseudo, pseudoHops, cases := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		tg := randomTaskGraph(r, 8+r.Intn(20), 4)
		if seed%2 == 1 {
			tg = tiedTaskGraph(r, 8+r.Intn(20), 3)
		}
		c := model.Cluster{P: 2 + r.Intn(10), Bandwidth: 12.5e6, Overlap: seed%3 != 0}
		np := make([]int, tg.N())
		for v := range np {
			np[v] = 1 + r.Intn(c.P)
		}
		bu := make([]float64, c.P)
		nf := make([]float64, c.P)
		for p := range bu {
			bu[p] = r.Float64() * 20
			nf[p] = 1 + float64(r.Intn(3))*0.5
		}
		preset := Preset{BusyUntil: bu, NodeFactor: nf}
		for _, alg := range []*LoCMPS{New(), NewNoBackfill(), NewICASLB()} {
			cfg := alg.Engine
			s, err := LoCBS(tg, c, np, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := LoCBSWithPreset(tg, c, np, cfg, preset)
			if err != nil {
				t.Fatal(err)
			}
			searched, err := alg.Schedule(tg, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*schedule.Schedule{s, ps, searched} {
				// iCASLB's kernel ignores charges; every schedule is also
				// checked with charges on, against Schedule.CriticalPath.
				for _, commAware := range []bool{true, cfg.CommAware} {
					n, h := checkKernel(t, &g, x, tg, commAware, alg.Name())
					pseudo += n
					pseudoHops += h
					cases++
				}
			}
		}
	}
	if pseudo == 0 || pseudoHops == 0 {
		t.Fatalf("vacuous: %d pseudo-edges and %d pseudo hops over %d cases", pseudo, pseudoHops, cases)
	}
	t.Logf("%d cases, %d pseudo-edges, %d pseudo hops on critical paths", cases, pseudo, pseudoHops)
}
