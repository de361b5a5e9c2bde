package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// searchEpoch hands every runSearch invocation a process-unique resume key.
// The key ties placement traces (and redistribution share caches) in the
// pool-recycled scratches to one search: within a search the graph, cluster,
// config and preset are fixed, so a trace carrying the current key is safe
// to resume from; a trace from any other search never matches. Key 0 is
// reserved for non-incremental runs (standalone LoCBS, DisableResume).
var searchEpoch atomic.Uint64

// errMemoHitBeatsBest reports a broken search invariant: every memoized
// vector was compared against a best score that only ever decreases, so a
// memo hit can never beat the best. The search keeps no schedule for a
// memoized vector, so rather than return a wrong one it fails.
var errMemoHitBeatsBest = errors.New("core: internal error: a memoized allocation vector beats the committed best")

// DefaultLookAheadDepth is the bounded look-ahead of §III.E ("a bound of 20
// iterations was found to yield good results").
const DefaultLookAheadDepth = 20

// DefaultTopFraction is the §III.C candidate window: the best candidate is
// the minimum-concurrency-ratio task among the top 10% by execution-time
// improvement.
const DefaultTopFraction = 0.10

// LoCMPS is the paper's locality conscious mixed-parallel allocation and
// scheduling algorithm (Algorithm 1). The zero value is not usable; create
// instances with New, NewNoBackfill or NewICASLB, or fill every field.
//
// Schedule, ScheduleWithPreset and ScheduleDual are safe for concurrent use:
// all per-run state lives in an internal search struct, and the shared
// statistics are mutex-guarded.
type LoCMPS struct {
	// AlgorithmName labels produced schedules.
	AlgorithmName string
	// Engine configures the LoCBS placement engine used at every
	// iteration.
	Engine Config
	// LookAheadDepth bounds the look-ahead search (0 selects the default).
	LookAheadDepth int
	// TopFraction is the best-candidate window (0 selects the default).
	TopFraction float64
	// MaxOuterIters caps the outer repeat-until loop as a safety net;
	// 0 selects 4*|V|*P.
	MaxOuterIters int
	// DisableMemo turns off the per-run allocation-vector memo table.
	// Schedules are bit-identical either way (LoCBS is deterministic);
	// the switch exists for ablation and tests.
	DisableMemo bool
	// DisableResume turns off incremental placement: every LoCBS run then
	// rebuilds its resource chart from empty instead of resuming from the
	// placement prefix shared with the previous run. Schedules are
	// bit-identical either way; the switch exists for ablation, tests and
	// the reference configuration benchmarks are baselined against.
	DisableResume bool

	// mu guards stats, the only mutable state on the instance.
	mu sync.Mutex
	// stats records the most recently completed Schedule invocation.
	stats SearchStats
}

// SearchStats describes the work done by one Schedule invocation — useful
// when studying how the bounded look-ahead explores the allocation space.
// It is the model-level RunMetrics, so every layer reports one struct.
type SearchStats = model.RunMetrics

// LastStats returns the statistics of the most recently completed Schedule
// call on this instance (for ScheduleDual, the winning run's).
func (s *LoCMPS) LastStats() SearchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LastRunMetrics is LastStats under the name the facade's SearchMetrics
// discovers through an interface assertion.
func (s *LoCMPS) LastRunMetrics() model.RunMetrics {
	return s.LastStats()
}

func (s *LoCMPS) setStats(st SearchStats) {
	s.mu.Lock()
	s.stats = st
	s.mu.Unlock()
}

// New returns the full LoC-MPS configuration of the paper.
func New() *LoCMPS {
	return &LoCMPS{AlgorithmName: "LoC-MPS", Engine: DefaultConfig()}
}

// NewNoBackfill returns the Figure 6 variant: identical allocation logic,
// but the placement engine tracks only the latest free time per processor.
func NewNoBackfill() *LoCMPS {
	cfg := DefaultConfig()
	cfg.Backfill = false
	return &LoCMPS{AlgorithmName: "LoC-MPS-NoBF", Engine: cfg}
}

// NewICASLB reproduces the authors' earlier iCASLB algorithm [4]: the same
// iterative look-ahead allocation, but every scheduling decision assumes
// inter-task communication is negligible — the critical path carries no
// edge weights, edges are never widened, and placement is locality-blind.
// Timing still charges real redistribution costs, which is exactly why
// iCASLB degrades as CCR grows (Figure 5).
func NewICASLB() *LoCMPS {
	return &LoCMPS{
		AlgorithmName: "iCASLB",
		Engine:        Config{Backfill: true, Locality: false, CommAware: false}.withDefaults(),
	}
}

// NewReference returns the paper configuration with every engine-level
// acceleration (memo table, incremental resume) switched off. Schedules are bit-identical to New's — the accelerations
// never change results — so this is the baseline configuration performance
// comparisons are measured against.
func NewReference() *LoCMPS {
	return &LoCMPS{
		AlgorithmName: "LoC-MPS",
		Engine:        DefaultConfig(),
		DisableMemo:   true,
		DisableResume: true,
	}
}

// Name implements schedule.Scheduler.
func (s *LoCMPS) Name() string {
	if s.AlgorithmName != "" {
		return s.AlgorithmName
	}
	return "LoC-MPS"
}

func (s *LoCMPS) depth() int {
	if s.LookAheadDepth > 0 {
		return s.LookAheadDepth
	}
	return DefaultLookAheadDepth
}

func (s *LoCMPS) topFraction() float64 {
	if s.TopFraction > 0 {
		return s.TopFraction
	}
	return DefaultTopFraction
}

// Schedule implements schedule.Scheduler (Algorithm 1).
func (s *LoCMPS) Schedule(tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	return s.ScheduleWithPreset(tg, cluster, Preset{})
}

// ScheduleWithPreset runs the full LoC-MPS allocation-and-scheduling loop
// around mid-execution state: preset tasks keep their placements and
// widths, remaining tasks are (re-)allocated and (re-)placed from scratch
// on the partially busy, possibly heterogeneous-speed machine. This is the
// re-planning entry point of the on-line runtime (internal/online).
func (s *LoCMPS) ScheduleWithPreset(tg *model.TaskGraph, cluster model.Cluster, preset Preset) (*schedule.Schedule, error) {
	sched, stats, _, err := s.runSearch(context.Background(), tg, cluster, preset, nil, Budget{})
	if err != nil {
		return nil, err
	}
	s.setStats(stats)
	return sched, nil
}

// search is the per-run state of one Algorithm 1 invocation. Separating it
// from LoCMPS makes concurrent Schedule calls on one instance safe and lets
// all scratch come from the shared pool.
type search struct {
	alg     *LoCMPS
	tg      *model.TaskGraph
	cluster model.Cluster
	cfg     Config
	preset  Preset
	tb      *model.Tables
	sc      *placerScratch
	stats   SearchStats
	// memo caches every evaluated allocation vector (nil when disabled).
	memo *allocMemo
	// resumeKey is this search's epoch for incremental placement (0 when
	// resume is disabled): every fresh run under the same key may resume
	// from the trace its scratch recorded for the previous run.
	resumeKey uint64
	// ctx aborts the search cooperatively (checked every round and
	// look-ahead step); budget truncates it gracefully, setting truncated.
	ctx       context.Context
	budget    Budget
	truncated bool
	// pbest/caps are the §III widening bounds; fixed tasks are frozen at
	// their historical width.
	pbest, caps []int
}

// runSearch executes Algorithm 1, optionally from a non-default starting
// allocation (ScheduleDual's saturated start), against a scratch drawn from
// the shared pool for the duration of the run.
func (s *LoCMPS) runSearch(ctx context.Context, tg *model.TaskGraph, cluster model.Cluster, preset Preset, initAlloc []int, budget Budget) (*schedule.Schedule, SearchStats, bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	return s.runSearchOn(ctx, sc, tg, cluster, preset, initAlloc, budget)
}

// runSearchOn is runSearch against caller-owned scratch. Warm workers
// (Worker, used by internal/serve) pin one scratch across many runs so its
// content-keyed cost cache and sized buffers survive between requests
// instead of being surrendered to the pool after every schedule. The third
// result reports whether the budget truncated the search before natural
// termination.
func (s *LoCMPS) runSearchOn(ctx context.Context, sc *placerScratch, tg *model.TaskGraph, cluster model.Cluster, preset Preset, initAlloc []int, budget Budget) (*schedule.Schedule, SearchStats, bool, error) {
	started := time.Now()
	if err := cluster.Validate(); err != nil {
		return nil, SearchStats{}, false, err
	}
	n := tg.N()
	if n == 0 {
		return nil, SearchStats{}, false, fmt.Errorf("core: empty task graph")
	}
	if err := preset.validate(tg, cluster); err != nil {
		return nil, SearchStats{}, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, false, err
	}
	sc.prepareSearch(n, tg.M())
	r := &search{
		alg:     s,
		tg:      tg,
		cluster: cluster,
		cfg:     s.Engine.withDefaults(),
		preset:  preset,
		tb:      tg.Tables(cluster.P),
		sc:      sc,
		ctx:     ctx,
		budget:  budget,
		pbest:   make([]int, n),
		caps:    make([]int, n),
	}
	if !s.DisableMemo {
		r.memo = newAllocMemo()
	}
	if !s.DisableResume {
		r.resumeKey = searchEpoch.Add(1)
	}
	fixed := func(t int) bool { _, ok := preset.Fixed[t]; return ok }
	for t := 0; t < n; t++ {
		r.pbest[t] = r.tb.Pbest(t, cluster.P)
		r.caps[t] = cluster.P
		if fixed(t) {
			// Frozen width: never a widening candidate.
			r.pbest[t] = preset.Fixed[t].NP()
			r.caps[t] = preset.Fixed[t].NP()
		}
	}

	// Steps 1-4: pure task-parallel start (preset tasks keep their
	// committed widths). ScheduleDual may inject a different start.
	bestAlloc := sc.bestAlloc
	for t := range bestAlloc {
		switch {
		case fixed(t):
			bestAlloc[t] = preset.Fixed[t].NP()
		case initAlloc != nil:
			bestAlloc[t] = initAlloc[t]
			if bestAlloc[t] < 1 {
				bestAlloc[t] = 1
			}
			if bestAlloc[t] > r.caps[t] {
				bestAlloc[t] = r.caps[t]
			}
		default:
			bestAlloc[t] = 1
		}
	}
	first, firstSched, err := r.evaluate(bestAlloc)
	if err != nil {
		return nil, r.stats, false, err
	}
	// The start vector is the first one evaluated, so it ran fresh. Only
	// runs that become the best are cloned out of the reused outputs.
	bestSched := firstSched.Clone()
	best := &sc.best
	best.copyFrom(first)

	maxOuter := s.MaxOuterIters
	if maxOuter == 0 {
		maxOuter = 4 * n * cluster.P
	}

outerLoop:
	for outer := 0; outer < maxOuter; outer++ {
		if stop, err := r.checkpoint(outer); err != nil {
			return nil, r.stats, false, err
		} else if stop {
			break
		}
		r.stats.OuterIterations++
		// Steps 6-7: restart the look-ahead from the committed best.
		np := sc.np
		copy(np, bestAlloc)
		cur := *best
		oldSL := best.score

		entryTask := -1
		entryEdgeID := -1

		for iter := 0; iter < s.depth(); iter++ {
			// The deadline is re-checked per look-ahead step so an anytime
			// stop overshoots by one placement run, not one whole round;
			// best-so-far is already committed, so breaking out mid-round
			// is always safe.
			if stop, err := r.checkpoint(outer); err != nil {
				return nil, r.stats, false, err
			} else if stop {
				break outerLoop
			}
			r.stats.LookAheadSteps++
			cp := cur.cp
			tcomp, tcomm := r.pathCosts(cur, np)

			kindTask := tcomp > tcomm
			applied := false
			for attempt := 0; attempt < 2 && !applied; attempt++ {
				if kindTask {
					if t := r.bestTask(np, cp, iter == 0); t >= 0 {
						if iter == 0 {
							entryTask, entryEdgeID = t, -1
						}
						np[t]++
						applied = true
					}
				} else if r.cfg.CommAware {
					eg, id := r.heaviestEdge(cur, np, iter == 0)
					if id >= 0 {
						if iter == 0 {
							entryEdgeID, entryTask = id, -1
						}
						widenEdge(np, eg, r.caps)
						applied = true
					}
				}
				kindTask = !kindTask // fall back to the other kind once
			}
			if !applied {
				break // nothing on the critical path can be refined
			}

			var sched *schedule.Schedule
			cur, sched, err = r.evaluate(np)
			if err != nil {
				return nil, r.stats, false, err
			}
			if cur.score.better(best.score) {
				if sched == nil {
					return nil, r.stats, false, errMemoHitBeatsBest
				}
				copy(bestAlloc, np)
				bestSched = sched.Clone()
				best.copyFrom(cur)
			}
		}

		improved := best.score.better(oldSL)
		switch {
		case improved:
			// Step 39: commit and clear all marks.
			r.stats.Commits++
			clearBools(sc.markedTask, n)
			clearBools(sc.markedEdge, tg.M())
		case entryTask >= 0:
			r.stats.Marks++
			sc.markedTask[entryTask] = true
		case entryEdgeID >= 0:
			r.stats.Marks++
			sc.markedEdge[entryEdgeID] = true
		default:
			// The look-ahead could not even choose an entry point: the
			// critical path is saturated.
			outer = maxOuter
		}

		if r.terminated(best, bestAlloc) {
			break
		}
	}

	bestSched.Algorithm = s.Name()
	bestSched.SchedulingTime = time.Since(started)
	return bestSched, r.stats, r.truncated, nil
}

// checkpoint is the cooperative stop test the search runs at every round
// and look-ahead step: a cancelled context aborts with its error, an
// exhausted budget (outer-round cap reached or deadline passed) stops
// gracefully with the best-so-far schedule and marks the run truncated.
func (r *search) checkpoint(outer int) (stop bool, err error) {
	if err := r.ctx.Err(); err != nil {
		return false, err
	}
	b := r.budget
	if b.MaxIterations > 0 && outer >= b.MaxIterations {
		r.truncated = true
		return true, nil
	}
	if !b.Deadline.IsZero() && !time.Now().Before(b.Deadline) {
		r.truncated = true
		return true, nil
	}
	return false, nil
}

// evaluate resolves an allocation vector to its summary: a memo hit when
// the vector was already evaluated this search (LoCBS is deterministic, so
// the cached summary is bit-identical to a fresh run's), otherwise one
// placement-engine invocation into a reused scratch output followed by
// the G' critical-path kernel. The schedule is returned only for a fresh
// run (nil on a hit) and is valid until the next evaluate call. Inputs
// were validated once up front, so the hot loop skips re-validation.
//
// Misses run incrementally: the scratch carries the trace of the previous
// run it executed (memo hits leave it untouched), and consecutive search
// vectors differ in one or two task widths, so most of the priority-order
// placement prefix is replayed rather than re-searched. The replay is
// bit-exact, so memoized and resumed results remain interchangeable.
func (r *search) evaluate(np []int) (evalSummary, *schedule.Schedule, error) {
	var h uint64
	if r.memo != nil {
		var (
			sum evalSummary
			hit bool
		)
		if h, sum, hit = r.memo.lookup(np); hit {
			r.stats.CacheHits++
			return sum, nil, nil
		}
		r.stats.CacheMisses++
	}
	r.stats.LoCBSRuns++
	sc := r.sc
	sched, err := runPlacer(r.tg, r.cluster, np, r.cfg, r.preset, sc, r.resumeKey, sc.output())
	if err != nil {
		return evalSummary{}, nil, err
	}
	// Fold the run's resume accounting into the stats.
	r.stats.ReplayedTasks += sc.lastReplayed
	r.stats.RollbackDepth += sc.lastRolledBack
	if sc.lastResumed {
		r.stats.ResumedRuns++
	}
	if _, err := sc.gp.run(sched, r.tg, r.tb, np, r.cfg.CommAware); err != nil {
		return evalSummary{}, nil, err
	}
	sum := evalSummary{score: objective(sched), cp: sc.gp.path, hopEdge: sc.gp.hopEdge, hopComm: sc.gp.hopComm}
	if r.memo != nil {
		r.memo.insert(h, np, sum)
	}
	return sum, sched, nil
}

// pathCosts splits the critical path into computation and communication
// components (Algorithm 1 steps 12-13).
func (r *search) pathCosts(cur evalSummary, np []int) (tcomp, tcomm float64) {
	for i, v := range cur.cp {
		tcomp += r.tb.ExecTime(v, np[v])
		if r.cfg.CommAware && i < len(cur.hopEdge) && cur.hopEdge[i] >= 0 {
			tcomm += cur.hopComm[i]
		}
	}
	return tcomp, tcomm
}

// bestTask implements the task-widening step of §III.C: among
// unsaturated (and, at the entry of a look-ahead, unmarked) critical-path
// tasks, rank by execution-time improvement, keep the top fraction and
// return its minimum-concurrency-ratio task, ties broken by task id. It
// returns -1 when nothing on the critical path can be refined.
func (r *search) bestTask(np, cp []int, entry bool) int {
	maxP := r.cluster.P
	cands := r.sc.cands[:0]
	for _, t := range cp {
		limit := r.pbest[t]
		if maxP < limit {
			limit = maxP
		}
		if np[t] >= limit {
			continue
		}
		if entry && r.sc.markedTask[t] {
			continue
		}
		gain := r.tb.ExecTime(t, np[t]) - r.tb.ExecTime(t, np[t]+1)
		cands = append(cands, taskCand{t, gain})
	}
	r.sc.cands = cands
	if len(cands) == 0 {
		return -1
	}
	slices.SortFunc(cands, func(a, b taskCand) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return a.t - b.t
	})
	k := int(math.Ceil(r.alg.topFraction() * float64(len(cands))))
	if k < 1 {
		k = 1
	}
	best := cands[0].t
	for _, c := range cands[1:k] {
		if r.tb.ConcurrencyRatio(c.t) < r.tb.ConcurrencyRatio(best) ||
			(r.tb.ConcurrencyRatio(c.t) == r.tb.ConcurrencyRatio(best) && c.t < best) {
			best = c.t
		}
	}
	return best
}

// heaviestEdge implements §III.D: the heaviest (by charged redistribution
// time) real edge along the critical path whose endpoints can still grow
// within their per-task caps. It returns the edge and its dense id (-1 if
// none qualifies).
func (r *search) heaviestEdge(cur evalSummary, np []int, entry bool) ([2]int, int) {
	best := [2]int{-1, -1}
	bestID := -1
	bestW := 0.0
	for i, id := range cur.hopEdge {
		if id < 0 {
			continue // pseudo-edge
		}
		u, v := cur.cp[i], cur.cp[i+1]
		if np[u] >= r.caps[u] && np[v] >= r.caps[v] {
			continue
		}
		if entry && r.sc.markedEdge[id] {
			continue
		}
		if w := cur.hopComm[i]; w > bestW {
			bestW = w
			best, bestID = [2]int{u, v}, id
		}
	}
	return best, bestID
}

// widenEdge increments the allocation of the lighter endpoint, or both when
// equal (§III.D), respecting per-task caps.
func widenEdge(np []int, e [2]int, caps []int) {
	ts, td := e[0], e[1]
	switch {
	case np[ts] > np[td]:
		if np[td] < caps[td] {
			np[td]++
		}
	case np[ts] < np[td]:
		if np[ts] < caps[ts] {
			np[ts]++
		}
	default:
		if np[td] < caps[td] {
			np[td]++
		}
		if np[ts] < caps[ts] {
			np[ts]++
		}
	}
}

// terminated evaluates the repeat-until condition: every task and edge on
// the committed schedule's critical path is marked (or saturated), or every
// critical-path task is at the full machine width.
func (r *search) terminated(best *evalSummary, np []int) bool {
	cp := best.cp
	if len(cp) == 0 {
		return true
	}
	maxP := r.cluster.P
	allAtP := true
	allBlocked := true
	for _, t := range cp {
		if np[t] < maxP {
			allAtP = false
		}
		limit := r.pbest[t]
		if maxP < limit {
			limit = maxP
		}
		if np[t] < limit && !r.sc.markedTask[t] {
			allBlocked = false
		}
	}
	if r.cfg.CommAware {
		for i, id := range best.hopEdge {
			if id < 0 || best.hopComm[i] == 0 {
				continue
			}
			u, v := cp[i], cp[i+1]
			if (np[u] < maxP || np[v] < maxP) && !r.sc.markedEdge[id] {
				allBlocked = false
			}
		}
	}
	return allAtP || allBlocked
}

// score is LoC-MPS's lexicographic objective: the makespan first, the sum
// of task completion times as a tie-breaker. The secondary criterion keeps
// the search moving when a long-running (e.g. preset) task pins the
// makespan: finishing everything else earlier is still progress.
type score struct {
	makespan  float64
	sumFinish float64
}

func objective(s *schedule.Schedule) score {
	var sum float64
	for _, pl := range s.Placements {
		sum += pl.Finish
	}
	return score{makespan: s.Makespan, sumFinish: sum}
}

// better reports whether a strictly improves on b.
func (a score) better(b score) bool {
	if a.makespan < b.makespan-schedule.Eps {
		return true
	}
	if a.makespan > b.makespan+schedule.Eps {
		return false
	}
	return a.sumFinish < b.sumFinish-schedule.Eps
}

// ScheduleDual runs the search twice — once from the paper's pure
// task-parallel start and once from the saturated data-parallel
// allocation (np = min(P, Pbest) per task) — and returns the better
// schedule. Landscapes like Fig 3's have minima reachable from one end
// but not the other; the two searches are independent, so they run on
// separate goroutines and the dual start costs roughly one search of
// wall-clock time. LastStats reflects the winning run.
func (s *LoCMPS) ScheduleDual(tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	started := time.Now()

	var (
		fromData  *schedule.Schedule
		dataStats SearchStats
		dataErr   error
		wg        sync.WaitGroup
	)
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	tb := tg.Tables(cluster.P)
	wide := make([]int, tg.N())
	for t := range wide {
		wide[t] = tb.Pbest(t, cluster.P)
		if wide[t] > cluster.P {
			wide[t] = cluster.P
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fromData, dataStats, _, dataErr = s.runSearch(context.Background(), tg, cluster, Preset{}, wide, Budget{})
	}()
	fromTask, taskStats, _, taskErr := s.runSearch(context.Background(), tg, cluster, Preset{}, nil, Budget{})
	wg.Wait()
	if taskErr != nil {
		return nil, taskErr
	}
	if dataErr != nil {
		return nil, dataErr
	}

	best, stats := fromTask, taskStats
	if objective(fromData).better(objective(fromTask)) {
		best, stats = fromData, dataStats
	}
	s.setStats(stats)
	best.SchedulingTime = time.Since(started)
	return best, nil
}
