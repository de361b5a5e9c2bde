package audit

import (
	"fmt"
	"math"
	"math/rand"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/sched"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
	"locmps/internal/synth"
)

// Harness: randomized differential stress testing. A Case is a compact,
// JSON-serializable description of one workload; RunCase regenerates it
// deterministically, drives the optimized scheduler, the frozen reference
// and every registry algorithm through the audit oracle, cross-checks
// optimized-vs-reference bit-identity, and verifies two metamorphic
// invariants (uniform time-scaling scales the makespan; infinite bandwidth
// drives redistribution charges to zero). cmd/stress and the property
// tests in this package are thin wrappers around Stress and Minimize.

// Shapes lists the workload topologies the harness samples from.
var Shapes = []string{"irregular", "layered", "forkjoin", "chain", "sp"}

// Case is one reproducible stress workload.
type Case struct {
	Seed    int64             `json:"seed"`
	Shape   string            `json:"shape"`
	Profile synth.ProfileKind `json:"profile"`
	Tasks   int               `json:"tasks"`
	Procs   int               `json:"procs"`
	CCR     float64           `json:"ccr"`
	Overlap bool              `json:"overlap"`
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d shape=%s profile=%s tasks=%d procs=%d ccr=%g overlap=%v",
		c.Seed, c.Shape, c.Profile, c.Tasks, c.Procs, c.CCR, c.Overlap)
}

// ccrSweep holds the communication-to-computation ratios the harness
// sweeps, from pure computation to communication-dominated.
var ccrSweep = []float64{0, 0.1, 0.5, 1, 2}

// CaseAt derives the i-th case of a stress run deterministically from the
// base seed: same (base, i) always yields the same workload.
func CaseAt(base int64, i int) Case {
	r := rand.New(rand.NewSource(base*1_000_003 + int64(i)))
	return Case{
		Seed:    r.Int63(),
		Shape:   Shapes[r.Intn(len(Shapes))],
		Profile: synth.ProfileKind(r.Intn(int(synth.ProfileMixed) + 1)),
		Tasks:   3 + r.Intn(10),
		Procs:   1 + r.Intn(8),
		CCR:     ccrSweep[r.Intn(len(ccrSweep))],
		Overlap: r.Intn(2) == 0,
	}
}

// Build regenerates the case's task graph and cluster.
func (c Case) Build() (*model.TaskGraph, model.Cluster, error) {
	p := synth.DefaultParams()
	p.Seed = c.Seed
	p.Tasks = c.Tasks
	p.CCR = c.CCR
	p.Profile = c.Profile
	p.AMax = 8 // moderate parallelism so allocation choices actually vary
	var (
		tg  *model.TaskGraph
		err error
	)
	switch c.Shape {
	case "layered":
		layers := c.Tasks / 3
		if layers < 1 {
			layers = 1
		}
		tg, err = synth.Layered(p, layers)
	case "forkjoin":
		if p.Tasks < 3 {
			p.Tasks = 3
		}
		tg, err = synth.ForkJoin(p)
	case "chain":
		tg, err = synth.Chain(p)
	case "sp":
		tg, err = synth.SeriesParallel(p)
	case "irregular":
		tg, err = synth.Generate(p)
	default:
		return nil, model.Cluster{}, fmt.Errorf("audit: unknown shape %q", c.Shape)
	}
	if err != nil {
		return nil, model.Cluster{}, err
	}
	cl := model.Cluster{P: c.Procs, Bandwidth: p.Bandwidth, Overlap: c.Overlap}
	return tg, cl, nil
}

// Failure describes one failed check, with enough context to reproduce it
// (`cmd/stress -seed` re-derives the workload from the embedded case).
type Failure struct {
	Case   Case   `json:"case"`
	Stage  string `json:"stage"`
	Detail string `json:"detail"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("audit: stage %s failed on case {%s}: %s", f.Stage, f.Case, f.Detail)
}

// RunCase executes every check of the harness on one case and returns the
// first failure, or nil.
func RunCase(c Case) *Failure {
	tg, cl, err := c.Build()
	if err != nil {
		return &Failure{c, "build", err.Error()}
	}
	// Differential: the optimized search must reproduce the frozen
	// reference implementation bit for bit.
	optimized, err := core.New().Schedule(tg, cl)
	if err != nil {
		return &Failure{c, "run:LoC-MPS", err.Error()}
	}
	reference, err := core.NewReference().Schedule(tg, cl)
	if err != nil {
		return &Failure{c, "run:reference", err.Error()}
	}
	if diff := DiffSchedules(tg, optimized, reference); diff != "" {
		return &Failure{c, "differential", diff}
	}
	// Every registry algorithm (plus the M-HEFT extension) must produce a
	// schedule the oracle accepts, including its recorded accounting.
	for _, s := range sched.Extended() {
		out, err := s.Schedule(tg, cl)
		if err != nil {
			return &Failure{c, "run:" + s.Name(), err.Error()}
		}
		if err := Check(tg, out, Options{RequireAccounting: true}).Err(); err != nil {
			return &Failure{c, "audit:" + s.Name(), err.Error()}
		}
	}
	if f := checkScaling(c, tg, cl); f != nil {
		return f
	}
	if f := checkInfiniteBandwidth(c, tg, cl); f != nil {
		return f
	}
	return nil
}

// DiffSchedules compares two schedules for bit-identity and describes the
// first difference ("" when identical): placements, per-edge charges and
// makespan, compared exactly with no tolerance.
func DiffSchedules(tg *model.TaskGraph, a, b *schedule.Schedule) string {
	if a.Makespan != b.Makespan {
		return fmt.Sprintf("makespan %v vs %v", a.Makespan, b.Makespan)
	}
	if len(a.Placements) != len(b.Placements) {
		return fmt.Sprintf("%d vs %d placements", len(a.Placements), len(b.Placements))
	}
	for t := range a.Placements {
		pa, pb := a.Placements[t], b.Placements[t]
		if len(pa.Procs) != len(pb.Procs) {
			return fmt.Sprintf("task %d: np %d vs %d", t, len(pa.Procs), len(pb.Procs))
		}
		for i := range pa.Procs {
			if pa.Procs[i] != pb.Procs[i] {
				return fmt.Sprintf("task %d: procs %v vs %v", t, pa.Procs, pb.Procs)
			}
		}
		if pa.Start != pb.Start || pa.Finish != pb.Finish ||
			pa.DataReady != pb.DataReady || pa.CommTime != pb.CommTime {
			return fmt.Sprintf("task %d: times (%v,%v,%v,%v) vs (%v,%v,%v,%v)",
				t, pa.Start, pa.Finish, pa.DataReady, pa.CommTime,
				pb.Start, pb.Finish, pb.DataReady, pb.CommTime)
		}
	}
	for id := 0; id < tg.M(); id++ {
		if a.CommID(id) != b.CommID(id) {
			return fmt.Sprintf("edge %d: charge %v vs %v", id, a.CommID(id), b.CommID(id))
		}
	}
	return ""
}

// scaleFactor is the uniform time-scaling factor of the metamorphic check.
// A power of two: multiplying an IEEE double by it only shifts the
// exponent, so every scaled intermediate the scheduler computes is the
// exact scaled original and the search makes identical decisions.
const scaleFactor = 8

// TimeScaled freezes a graph's execution times into Table profiles
// sampled at 1..P processors, each multiplied by k. With k=1 this is the
// identity workload as far as any scheduler limited to P processors can
// observe. The metamorphic harness pairs a k=1 graph against a
// power-of-two-scaled one (with bandwidth divided by the same factor) to
// assert exact time covariance; the streaming simulator's x8 test reuses
// it to scale whole arrival traces.
func TimeScaled(tg *model.TaskGraph, P int, k float64) (*model.TaskGraph, error) {
	tasks := make([]model.Task, tg.N())
	for t := range tasks {
		times := make([]float64, P)
		for p := 1; p <= P; p++ {
			times[p-1] = k * tg.ExecTime(t, p)
		}
		prof, err := speedup.NewTable(times)
		if err != nil {
			return nil, err
		}
		tasks[t] = model.Task{Name: tg.Tasks[t].Name, Profile: prof}
	}
	return model.NewTaskGraph(tasks, tg.Edges())
}

// checkScaling verifies the metamorphic invariant mk(k*W) = k*mk(W):
// scaling every execution time by a power of two and the bandwidth by its
// inverse (volumes untouched, so block-cyclic matrices are unchanged)
// must scale the makespan by exactly that factor, up to float dust from
// the scheduler's absolute epsilons.
func checkScaling(c Case, tg *model.TaskGraph, cl model.Cluster) *Failure {
	base, err := TimeScaled(tg, cl.P, 1)
	if err != nil {
		return &Failure{c, "scale:build", err.Error()}
	}
	scaled, err := TimeScaled(tg, cl.P, scaleFactor)
	if err != nil {
		return &Failure{c, "scale:build", err.Error()}
	}
	clScaled := cl
	clScaled.Bandwidth = cl.Bandwidth / scaleFactor
	s1, err := core.New().Schedule(base, cl)
	if err != nil {
		return &Failure{c, "scale:run", err.Error()}
	}
	s2, err := core.New().Schedule(scaled, clScaled)
	if err != nil {
		return &Failure{c, "scale:run", err.Error()}
	}
	want := scaleFactor * s1.Makespan
	if relDiff(s2.Makespan, want) > 1e-9 {
		return &Failure{c, "scale", fmt.Sprintf(
			"scaled makespan %v != %d * %v = %v", s2.Makespan, scaleFactor, s1.Makespan, want)}
	}
	return nil
}

// checkInfiniteBandwidth verifies that driving the bandwidth towards
// infinity makes every recomputed redistribution charge vanish relative to
// the makespan. (It does not assert the makespan never worsens: LoC-MPS is
// a heuristic, and changing edge costs can steer its allocation search to
// a different local optimum — a Graham-style anomaly, not a bug.)
func checkInfiniteBandwidth(c Case, tg *model.TaskGraph, cl model.Cluster) *Failure {
	fast := cl
	fast.Bandwidth = cl.Bandwidth * 1e15
	s, err := core.New().Schedule(tg, fast)
	if err != nil {
		return &Failure{c, "bandwidth:run", err.Error()}
	}
	var total float64
	for id := 0; id < tg.M(); id++ {
		total += s.CommID(id)
	}
	if total > 1e-9*(1+s.Makespan) {
		return &Failure{c, "bandwidth", fmt.Sprintf(
			"total redistribution charge %v did not vanish at bandwidth %v (makespan %v)",
			total, fast.Bandwidth, s.Makespan)}
	}
	if err := Check(tg, s, Options{RequireAccounting: true}).Err(); err != nil {
		return &Failure{c, "bandwidth:audit", err.Error()}
	}
	return nil
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Stress runs n cases derived from the base seed and collects every
// failure. A non-empty shape pins all cases to that topology. report, when
// non-nil, is called after every case (for progress output).
func Stress(base int64, n int, shape string, report func(i int, f *Failure)) []Failure {
	var fails []Failure
	for i := 0; i < n; i++ {
		c := CaseAt(base, i)
		if shape != "" {
			c.Shape = shape
		}
		f := RunCase(c)
		if f != nil {
			fails = append(fails, *f)
		}
		if report != nil {
			report(i, f)
		}
	}
	return fails
}

// Minimize greedily shrinks a failing case while the predicate keeps
// failing, trying halvings and decrements of the size parameters and
// resets of the qualitative ones until a fixpoint. fails must be true for
// the input case.
func Minimize(c Case, fails func(Case) bool) Case {
	for {
		shrunk := false
		for _, cand := range shrinkCandidates(c) {
			if fails(cand) {
				c = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return c
		}
	}
}

func shrinkCandidates(c Case) []Case {
	var out []Case
	add := func(d Case) {
		if d != c {
			out = append(out, d)
		}
	}
	if c.Tasks > 3 {
		d := c
		d.Tasks = c.Tasks / 2
		if d.Tasks < 3 {
			d.Tasks = 3
		}
		add(d)
		e := c
		e.Tasks--
		add(e)
	}
	if c.Procs > 1 {
		d := c
		d.Procs = c.Procs / 2
		add(d)
		e := c
		e.Procs--
		add(e)
	}
	if c.CCR != 0 {
		d := c
		d.CCR = 0
		add(d)
	}
	if c.Profile != synth.ProfileDowney {
		d := c
		d.Profile = synth.ProfileDowney
		add(d)
	}
	if c.Shape != "chain" {
		d := c
		d.Shape = "chain"
		add(d)
	}
	if c.Overlap {
		d := c
		d.Overlap = false
		add(d)
	}
	return out
}
