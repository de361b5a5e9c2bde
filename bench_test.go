package locmps_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§IV), each regenerating the corresponding data series at a
// reduced-but-representative scale, plus micro-benchmarks of the scheduler
// itself. Run the paper-scale versions with cmd/experiments -full.
//
//	go test -bench=. -benchmem

import (
	"strconv"
	"testing"

	"locmps"
)

func benchSuite() locmps.SuiteOptions {
	o := locmps.QuickSuiteOptions()
	o.Graphs = 3
	o.MinTasks, o.MaxTasks = 10, 20
	o.Procs = []int{8, 16}
	return o
}

func benchApps() locmps.AppOptions {
	o := locmps.QuickAppOptions()
	o.Procs = []int{8, 16}
	return o
}

func reportRatios(b *testing.B, f locmps.Figure) {
	b.Helper()
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			b.Fatalf("series %s empty", s.Name)
		}
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, s.Name+"@P"+strconv.Itoa(int(last.X)))
	}
}

// benchFigure regenerates one figure per iteration and reports its final-P
// ratios once; every figure benchmark below shares this body.
func benchFigure(b *testing.B, gen func() (locmps.Figure, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRatios(b, f)
		}
	}
}

// BenchmarkFig4a: synthetic graphs, CCR=0, Amax=64 sigma=1.
func BenchmarkFig4a(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig4('a', benchSuite()) })
}

// BenchmarkFig4b: synthetic graphs, CCR=0, Amax=48 sigma=2.
func BenchmarkFig4b(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig4('b', benchSuite()) })
}

// BenchmarkFig5a: synthetic graphs, CCR=0.1.
func BenchmarkFig5a(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig5('a', benchSuite()) })
}

// BenchmarkFig5b: synthetic graphs, CCR=1.
func BenchmarkFig5b(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig5('b', benchSuite()) })
}

// BenchmarkFig6 compares backfill to no-backfill (schedule quality and
// scheduling time).
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) {
		perf, _, err := locmps.Fig6(benchSuite())
		return perf, err
	})
}

// BenchmarkFig8Overlap: CCSD-T1 with computation/communication overlap.
func BenchmarkFig8Overlap(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig8(true, benchApps()) })
}

// BenchmarkFig8NoOverlap: CCSD-T1 without overlap.
func BenchmarkFig8NoOverlap(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig8(false, benchApps()) })
}

// BenchmarkFig9Strassen1024: Strassen 1024x1024.
func BenchmarkFig9Strassen1024(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig9(1024, benchApps()) })
}

// BenchmarkFig9Strassen4096: Strassen 4096x4096.
func BenchmarkFig9Strassen4096(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig9(4096, benchApps()) })
}

// BenchmarkFig10SchedulingTimes measures the schedulers themselves (CCSD).
func BenchmarkFig10SchedulingTimes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.Fig10("ccsd", benchApps()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11ActualExecution: simulated execution of CCSD-T1 with
// runtime noise.
func BenchmarkFig11ActualExecution(b *testing.B) {
	benchFigure(b, func() (locmps.Figure, error) { return locmps.Fig11(benchApps()) })
}

// --- Micro-benchmarks of the core algorithm -------------------------------

func synthGraph(b *testing.B, tasks int, ccr float64) *locmps.TaskGraph {
	b.Helper()
	p := locmps.DefaultSynthParams()
	p.Tasks = tasks
	p.CCR = ccr
	p.Seed = 7
	tg, err := locmps.Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	return tg
}

// BenchmarkLoCMPS30Tasks16Procs is the mid-scale scheduling cost.
func BenchmarkLoCMPS30Tasks16Procs(b *testing.B) {
	tg := synthGraph(b, 30, 0.1)
	c := locmps.Cluster{P: 16, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewLoCMPS().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoCMPS50Tasks64Procs approaches the paper's largest runs.
func BenchmarkLoCMPS50Tasks64Procs(b *testing.B) {
	tg := synthGraph(b, 50, 0.1)
	c := locmps.Cluster{P: 64, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewLoCMPS().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoCMPS100Tasks128Procs stresses the search layer beyond the
// paper's scale: long look-ahead trajectories over many rounds, where the
// allocation-vector memo absorbs most repeat evaluations.
func BenchmarkLoCMPS100Tasks128Procs(b *testing.B) {
	tg := synthGraph(b, 100, 0.1)
	c := locmps.Cluster{P: 128, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewLoCMPS().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPR30Tasks16Procs for comparison with the cheaper baselines.
func BenchmarkCPR30Tasks16Procs(b *testing.B) {
	tg := synthGraph(b, 30, 0.1)
	c := locmps.Cluster{P: 16, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewCPR().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPA30Tasks16Procs: the low-cost two-phase baseline.
func BenchmarkCPA30Tasks16Procs(b *testing.B) {
	tg := synthGraph(b, 30, 0.1)
	c := locmps.Cluster{P: 16, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewCPA().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCCSD measures the discrete-event executor.
func BenchmarkSimulateCCSD(b *testing.B) {
	tg, err := locmps.CCSDT1(locmps.CCSDParams{O: 16, V: 64})
	if err != nil {
		b.Fatal(err)
	}
	c := locmps.Cluster{P: 32, Bandwidth: locmps.MyrinetBandwidth, Overlap: true}
	s, err := locmps.NewLoCMPS().Schedule(tg, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.Execute(tg, s, locmps.SimOptions{Noise: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---------------------------------------------------

// BenchmarkAblationLookAhead sweeps the look-ahead depth on a small suite
// (the design-choice study of DESIGN.md §7).
func BenchmarkAblationLookAhead(b *testing.B) {
	o := locmps.DefaultAblationOptions()
	o.Suite.Graphs = 2
	o.Suite.MinTasks, o.Suite.MaxTasks = 10, 16
	o.Procs = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		perf, _, err := locmps.AblateLookAhead(o, []int{1, 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pts := perf.Series[0].Points
			b.ReportMetric(pts[len(pts)-1].Y, "depth20-vs-1")
		}
	}
}

// BenchmarkOptimalityGap measures LoC-MPS against the branch-and-bound
// optimum on tiny instances.
func BenchmarkOptimalityGap(b *testing.B) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 4
	p.CCR = 0.1
	p.Seed = 12
	tg, err := locmps.Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	c := locmps.Cluster{P: 3, Bandwidth: p.Bandwidth, Overlap: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt, err := locmps.NewOptimal().Schedule(tg, c)
		if err != nil {
			b.Fatal(err)
		}
		loc, err := locmps.NewLoCMPS().Schedule(tg, c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(loc.Makespan/opt.Makespan, "gap")
		}
	}
}

// BenchmarkOnlineRescheduling measures the adaptive runtime around a node
// slowdown (the future-work extension).
func BenchmarkOnlineRescheduling(b *testing.B) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 20
	p.Seed = 11
	tg, err := locmps.Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	c := locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: true}
	opt := locmps.OnlineOptions{
		Slowdowns: []locmps.Slowdown{{Time: 0.1, Node: 0, Factor: 8}},
		Policy:    locmps.ReschedulePolicy{DriftThreshold: 0.05, Reallocate: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := locmps.ExecuteOnline(locmps.NewLoCMPS(), tg, c, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tr.Makespan/tr.PlannedMakespan, "slowdown-factor")
		}
	}
}

// BenchmarkBackfillSubstrate measures the rigid-job backfilling substrate.
func BenchmarkBackfillSubstrate(b *testing.B) {
	jobs := make([]locmps.RigidJob, 300)
	now := 0.0
	for i := range jobs {
		now += float64(i%7) * 1.3
		run := 5 + float64(i%23)*3
		jobs[i] = locmps.RigidJob{
			Arrival: now, Procs: 1 << (i % 5), Runtime: run, Estimate: run * 1.5,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.SimulateJobs(jobs, 32, locmps.StrategyConservative); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMHEFT measures the extra M-HEFT baseline at mid scale.
func BenchmarkMHEFT(b *testing.B) {
	tg := synthGraph(b, 30, 0.1)
	c := locmps.Cluster{P: 16, Bandwidth: 12.5e6, Overlap: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := locmps.NewMHEFT().Schedule(tg, c); err != nil {
			b.Fatal(err)
		}
	}
}
