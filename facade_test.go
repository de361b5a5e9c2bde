package locmps_test

// facade_test exercises the remaining public API surface end to end:
// format parsers, workload topologies, job scheduling, statistics and
// profile fitting.

import (
	"math"
	"strings"
	"testing"

	"locmps"
)

func TestFacadeFormats(t *testing.T) {
	stg := `
2
0 0 0
1 5 1 0
2 7 1 1
3 0 1 2
`
	tg, err := locmps.ReadSTG(strings.NewReader(stg), locmps.DefaultMalleability())
	if err != nil {
		t.Fatal(err)
	}
	if tg.N() != 4 {
		t.Errorf("N = %d", tg.N())
	}

	tgff := `
@TASK_GRAPH 0 {
	TASK a TYPE 0
	TASK b TYPE 1
	ARC e0 FROM a TO b TYPE 0
}
`
	graphs, err := locmps.ParseTGFF(strings.NewReader(tgff))
	if err != nil {
		t.Fatal(err)
	}
	built, err := locmps.BuildFromTGFF(graphs[0], locmps.TGFFCosts{
		TaskTime:    map[int]float64{0: 10, 1: 20},
		DefaultTime: 5, DefaultArc: 1,
	}, locmps.DefaultMalleability())
	if err != nil {
		t.Fatal(err)
	}
	if built.N() != 2 || built.ExecTime(1, 1) != 20 {
		t.Errorf("TGFF build wrong: N=%d t=%v", built.N(), built.ExecTime(1, 1))
	}
}

func TestFacadeTopologiesAndApps(t *testing.T) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 8
	if g, err := locmps.SyntheticChain(p); err != nil || g.N() != 8 {
		t.Errorf("chain: %v", err)
	}
	if g, err := locmps.SyntheticForkJoin(p); err != nil || g.N() != 8 {
		t.Errorf("fork-join: %v", err)
	}
	if _, err := locmps.SyntheticOutTree(p, 2); err != nil {
		t.Errorf("out-tree: %v", err)
	}
	if _, err := locmps.SyntheticInTree(p, 2); err != nil {
		t.Errorf("in-tree: %v", err)
	}
	if _, err := locmps.SyntheticSeriesParallel(p); err != nil {
		t.Errorf("series-parallel: %v", err)
	}
	if _, err := locmps.Montage(locmps.DefaultMontageParams()); err != nil {
		t.Errorf("montage: %v", err)
	}
	if _, err := locmps.StrassenRecursive(512, 2); err != nil {
		t.Errorf("recursive strassen: %v", err)
	}
}

func TestFacadeStatsAndFit(t *testing.T) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 10
	g, err := locmps.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := locmps.GraphStatistics(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 10 || st.Width < 1 || st.Depth < 1 {
		t.Errorf("stats = %+v", st)
	}
	truth := locmps.Downey{T1: 50, A: 10, Sigma: 1}
	times := make([]float64, 16)
	for i := range times {
		times[i] = truth.Time(i + 1)
	}
	fit, err := locmps.FitDowney(times)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Time(8)-truth.Time(8)) > 0.05*truth.Time(8) {
		t.Errorf("fit diverges: %v vs %v", fit.Time(8), truth.Time(8))
	}
}

func TestFacadeSWFAndDual(t *testing.T) {
	swf := "1 0 0 100 4 -1 -1 4 150 -1 1 1 1 1 1 1 -1 -1\n" +
		"2 10 0 50 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 -1\n"
	jobs, err := locmps.ReadSWF(strings.NewReader(swf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	res, err := locmps.SimulateJobs(jobs, 8, locmps.StrategyEASY)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100 {
		t.Errorf("makespan = %v", res.Makespan)
	}

	tg, err := locmps.NewTaskGraph([]locmps.Task{
		{Name: "a", Profile: locmps.Linear{T1: 40}},
		{Name: "b", Profile: locmps.Linear{T1: 80}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := locmps.ScheduleDual(tg, locmps.Cluster{P: 4, Bandwidth: 1e9, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Makespan-30) > 1e-6 {
		t.Errorf("dual makespan = %v, want 30", s.Makespan)
	}
}
