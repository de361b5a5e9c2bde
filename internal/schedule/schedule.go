// Package schedule defines the output of every scheduling algorithm in this
// module: per-task processor sets with start/finish times, plus the derived
// artifacts the algorithms themselves consume — the schedule-DAG G' with
// pseudo-edges for resource-induced dependences (paper Fig 1), schedule
// validation invariants, utilization accounting and an ASCII Gantt chart.
package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"locmps/internal/graph"
	"locmps/internal/model"
)

// Eps is the tolerance used when comparing schedule times.
const Eps = 1e-6

// Placement records where and when one task runs.
type Placement struct {
	// Procs is the task's processor group in block-cyclic rank order.
	// Schedulers in this module always use ascending physical ids, so two
	// tasks on the same set share the same layout and redistribution
	// between them is free.
	Procs []int
	// Start and Finish bound the computation; Finish-Start = et(t, |Procs|).
	Start, Finish float64
	// DataReady is est(t): the earliest time the task could have started
	// given predecessor finish times plus redistribution delays. Start >
	// DataReady means the task waited on resources, which is what induces
	// pseudo-edges in G'.
	DataReady float64
	// CommTime is the redistribution delay charged before the task started
	// (the max over incoming edges of their transfer times).
	CommTime float64
}

// NP reports the number of processors allocated.
func (p Placement) NP() int { return len(p.Procs) }

// Schedule is a complete mapping of a task graph onto a cluster.
type Schedule struct {
	Algorithm string
	Cluster   model.Cluster
	// Placements is indexed by task id.
	Placements []Placement
	Makespan   float64
	// comm is the redistribution time actually charged on each graph edge
	// under this schedule's placements (0 for fully local reuse), stored
	// densely by the task graph's edge ids. Used as G' edge weights.
	comm []float64
	// tg is the task graph the edge ids index into.
	tg *model.TaskGraph
	// SchedulingTime is the wall-clock cost of computing this schedule,
	// the quantity plotted in the paper's Figure 10.
	SchedulingTime time.Duration
}

// NewSchedule allocates an empty schedule for the graph's tasks. Edge
// communication charges are stored densely against tg's edge index.
func NewSchedule(algorithm string, c model.Cluster, tg *model.TaskGraph) *Schedule {
	return &Schedule{
		Algorithm:  algorithm,
		Cluster:    c,
		Placements: make([]Placement, tg.N()),
		comm:       make([]float64, tg.M()),
		tg:         tg,
	}
}

// Reset turns s into an empty schedule for the graph's tasks, as
// NewSchedule would, but reuses its placement and charge slices. The
// processor sets of the old placements are dropped, not reused: their
// backing arrays belong to whoever carved them.
func (s *Schedule) Reset(algorithm string, c model.Cluster, tg *model.TaskGraph) {
	pls := s.Placements
	if cap(pls) < tg.N() {
		pls = make([]Placement, tg.N())
	} else {
		pls = pls[:tg.N()]
		clear(pls)
	}
	comm := s.comm
	if cap(comm) < tg.M() {
		comm = make([]float64, tg.M())
	} else {
		comm = comm[:tg.M()]
		clear(comm)
	}
	*s = Schedule{Algorithm: algorithm, Cluster: c, Placements: pls, comm: comm, tg: tg}
}

// CommOn returns the communication time charged on edge u->v (0 when the
// edge is absent).
func (s *Schedule) CommOn(u, v int) float64 {
	if id, ok := s.tg.EdgeID(u, v); ok {
		return s.comm[id]
	}
	return 0
}

// SetComm records the communication time charged on edge u->v. Setting a
// non-existent edge is a no-op.
func (s *Schedule) SetComm(u, v int, w float64) {
	if id, ok := s.tg.EdgeID(u, v); ok {
		s.comm[id] = w
	}
}

// CommID returns the charge on the edge with the given dense id — the
// hot-path variant of CommOn for callers that already hold edge ids.
func (s *Schedule) CommID(id int) float64 { return s.comm[id] }

// SetCommID records the charge on the edge with the given dense id.
func (s *Schedule) SetCommID(id int, w float64) { s.comm[id] = w }

// Clone returns a deep copy of the schedule: placements (including their
// processor sets) and per-edge communication charges are copied, so mutating
// the clone never affects the original. The task graph reference is shared —
// it is immutable after construction. Result caches hand out clones so a
// caller scribbling on a returned schedule cannot corrupt the cached one.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Placements = make([]Placement, len(s.Placements))
	total := 0
	for _, pl := range s.Placements {
		total += len(pl.Procs)
	}
	// One backing array holds every copied processor set; each set is
	// capped so an append to one can never overwrite the next.
	store := make([]int, 0, total)
	for i, pl := range s.Placements {
		if len(pl.Procs) == 0 {
			pl.Procs = nil
		} else {
			start := len(store)
			store = append(store, pl.Procs...)
			pl.Procs = store[start:len(store):len(store)]
		}
		c.Placements[i] = pl
	}
	c.comm = append([]float64(nil), s.comm...)
	return &c
}

// Validate checks the fundamental invariants of a schedule against its task
// graph:
//
//  1. every task has a non-empty set of distinct in-range processors,
//  2. Finish = Start + et(t, np) within tolerance, Start >= 0,
//  3. precedence: st(child) >= ft(parent) + comm(e) for every edge, where
//     comm(e) is the redistribution time this schedule recorded on the
//     edge (schedulers that do not record charges degrade to the plain
//     st >= ft check; internal/audit recomputes the charges independently),
//  4. exclusivity: no processor runs two tasks at overlapping times.
//
// It returns the first violation found.
func (s *Schedule) Validate(tg *model.TaskGraph) error {
	if len(s.Placements) != tg.N() {
		return fmt.Errorf("schedule: %d placements for %d tasks", len(s.Placements), tg.N())
	}
	type span struct {
		task        int
		start, stop float64
	}
	perProc := make([][]span, s.Cluster.P)
	for t, pl := range s.Placements {
		if pl.NP() == 0 {
			return fmt.Errorf("schedule: task %d (%s) not placed", t, tg.Tasks[t].Name)
		}
		seen := make(map[int]struct{}, pl.NP())
		for _, proc := range pl.Procs {
			if proc < 0 || proc >= s.Cluster.P {
				return fmt.Errorf("schedule: task %d on processor %d outside [0,%d)", t, proc, s.Cluster.P)
			}
			if _, dup := seen[proc]; dup {
				return fmt.Errorf("schedule: task %d lists processor %d twice", t, proc)
			}
			seen[proc] = struct{}{}
		}
		if pl.Start < -Eps {
			return fmt.Errorf("schedule: task %d starts at negative time %v", t, pl.Start)
		}
		et := tg.ExecTime(t, pl.NP())
		if math.Abs(pl.Finish-pl.Start-et) > Eps*(1+et) {
			return fmt.Errorf("schedule: task %d duration %v != et(%d)=%v",
				t, pl.Finish-pl.Start, pl.NP(), et)
		}
		for _, proc := range pl.Procs {
			perProc[proc] = append(perProc[proc], span{t, pl.Start, pl.Finish})
		}
	}
	for i, e := range tg.Edges() {
		need := s.Placements[e.From].Finish
		if i < len(s.comm) {
			need += s.comm[i]
		}
		if s.Placements[e.To].Start < need-Eps*(1+need) {
			return fmt.Errorf("schedule: edge %d->%d violated: child starts %v before parent finish %v + redistribution %v",
				e.From, e.To, s.Placements[e.To].Start, s.Placements[e.From].Finish, need-s.Placements[e.From].Finish)
		}
	}
	for proc, spans := range perProc {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].stop-Eps {
				return fmt.Errorf("schedule: processor %d double-booked: task %d [%v,%v) overlaps task %d [%v,%v)",
					proc, spans[i-1].task, spans[i-1].start, spans[i-1].stop,
					spans[i].task, spans[i].start, spans[i].stop)
			}
		}
	}
	return nil
}

// ComputeMakespan recomputes the makespan from placements.
func (s *Schedule) ComputeMakespan() float64 {
	var m float64
	for _, pl := range s.Placements {
		if pl.Finish > m {
			m = pl.Finish
		}
	}
	s.Makespan = m
	return m
}

// Utilization reports busy processor-time over P*makespan, the effective
// processor utilization that backfilling improves.
func (s *Schedule) Utilization(tg *model.TaskGraph) float64 {
	if s.Makespan == 0 {
		return 0
	}
	var busy float64
	for t, pl := range s.Placements {
		busy += float64(pl.NP()) * tg.ExecTime(t, pl.NP())
	}
	return busy / (float64(s.Cluster.P) * s.Makespan)
}

// ScheduleDAG derives G': the application DAG plus zero-weight pseudo-edges
// representing dependences induced by resource limitations (paper §III.A and
// Alg 2 steps 17-18). A pseudo-edge ti -> tp is added whenever tp started
// later than its data-ready time and ti finishes exactly when tp starts on a
// shared processor — i.e. ti is the task tp waited for.
func (s *Schedule) ScheduleDAG(tg *model.TaskGraph) *graph.DAG {
	g := tg.DAG().Clone()
	procsOf := make([]map[int]struct{}, tg.N())
	for t, pl := range s.Placements {
		procsOf[t] = make(map[int]struct{}, pl.NP())
		for _, p := range pl.Procs {
			procsOf[t][p] = struct{}{}
		}
	}
	for tp, pl := range s.Placements {
		if pl.Start <= pl.DataReady+Eps {
			continue
		}
		for ti, pli := range s.Placements {
			if ti == tp || math.Abs(pli.Finish-pl.Start) > Eps {
				continue
			}
			if pli.Start >= pl.Start-Eps {
				// ti must have started strictly before tp starts; this
				// excludes zero-duration tasks at the same instant, which
				// could otherwise chain into a cycle of pseudo-edges.
				continue
			}
			shared := false
			for _, p := range pli.Procs {
				if _, ok := procsOf[tp][p]; ok {
					shared = true
					break
				}
			}
			if shared && !g.HasEdge(tp, ti) { // avoid creating 2-cycles on ties
				// Edges returned by Clone stay acyclic because pseudo-edges
				// always point forward in time (ft(ti) == st(tp) < ft(tp)).
				_ = g.AddEdge(ti, tp)
			}
		}
	}
	return g
}

// CriticalPath computes the critical path of G' under this schedule's
// weights: vertex weight et(t, np(t)); real edges weigh their charged
// redistribution time, pseudo-edges weigh zero. It returns the path and its
// length.
func (s *Schedule) CriticalPath(tg *model.TaskGraph) (float64, []int, error) {
	g := s.ScheduleDAG(tg)
	vw := func(v int) float64 { return tg.ExecTime(v, s.Placements[v].NP()) }
	ew := func(u, v int) float64 {
		if tg.DAG().HasEdge(u, v) {
			return s.CommOn(u, v)
		}
		return 0 // pseudo-edge
	}
	return graph.CriticalPath(g, vw, ew)
}

// Gantt renders an ASCII Gantt chart of the schedule, one row per
// processor, scaled to the given character width. Task labels are truncated
// to fit their bars.
func (s *Schedule) Gantt(tg *model.TaskGraph, width int) string {
	if width < 20 {
		width = 20
	}
	if s.Makespan <= 0 {
		s.ComputeMakespan()
	}
	if s.Makespan <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / s.Makespan
	rows := make([][]byte, s.Cluster.P)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for t, pl := range s.Placements {
		if pl.NP() == 0 {
			continue
		}
		lo := int(pl.Start * scale)
		hi := int(pl.Finish * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		name := tg.Tasks[t].Name
		if name == "" {
			name = fmt.Sprintf("t%d", t)
		}
		for _, proc := range pl.Procs {
			for x := lo; x < hi; x++ {
				idx := x - lo
				if idx < len(name) {
					rows[proc][x] = name[idx]
				} else {
					rows[proc][x] = '#'
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s on P=%d, makespan %.4g\n", s.Algorithm, s.Cluster.P, s.Makespan)
	for i, r := range rows {
		fmt.Fprintf(&b, "p%-3d |%s|\n", i, r)
	}
	return b.String()
}

// Scheduler is implemented by every allocation-and-scheduling algorithm in
// this module (LoC-MPS and all baselines).
type Scheduler interface {
	// Name identifies the algorithm ("LoC-MPS", "CPR", ...).
	Name() string
	// Schedule maps the task graph onto the cluster.
	Schedule(tg *model.TaskGraph, c model.Cluster) (*Schedule, error)
}
