package main

import (
	"fmt"
	"math/rand"
	"time"

	"locmps"
	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/redist"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

// The cold-search suite: distinct synthetic DAGs on 16 processors,
// alternating CCR 0.1 and 1.0 so that both the computation- and the
// communication-dominated branch of the LoC-MPS search fire and any prefix
// of the suite is balanced. A search's cost varies tenfold between DAGs of
// one size, so a run must hold a few hundred searches for its figures to
// be steady across seeds; on two CPUs that rules out wider clusters and
// larger DAGs (one search of a 30-task DAG on 64 processors takes 0.2 to
// 3 s). The task ranges make a search cost about the same at either CCR,
// so the search times form one mode and their median is steady. Sizes
// cycle through each range rather than being drawn, so that only the
// graphs' structure varies with the seed.
const coldProcs = 16

var (
	coldCCRs  = []float64{0.1, 1.0}
	coldTasks = [][2]int{{20, 23}, {26, 30}} // per CCR, inclusive
)

const (
	// coldSuite is the number of distinct DAGs generated; the loop wraps
	// around (re-checking determinism) if a run gets through all of them.
	coldSuite = 800
	// coldPrefix instances always run, whatever the window: quality and
	// the per-layer counters are taken over them, so both are a function
	// of the seed alone.
	coldPrefix = 96
	// fastCostSweeps repeats the per-schedule edge pricing so one timing
	// covers enough calls to be measurable.
	fastCostSweeps = 20
)

type coldInst struct {
	tg *model.TaskGraph
	c  model.Cluster
	lb float64
}

// coldSetup generates the suite, builds each graph's tables and computes
// its lower bound.
func coldSetup(e *env) ([]coldInst, error) {
	r := rand.New(rand.NewSource(e.cfg.seed))
	suite := make([]coldInst, coldSuite)
	for i := range suite {
		p := synth.DefaultParams()
		lo, hi := coldTasks[i%len(coldCCRs)][0], coldTasks[i%len(coldCCRs)][1]
		p.Tasks = lo + i/len(coldCCRs)%(hi-lo+1)
		p.CCR = coldCCRs[i%len(coldCCRs)]
		p.Seed = r.Int63()
		var tg *model.TaskGraph
		var err error
		e.tr.timed("synth.Generate", 0, int64(i), func() { tg, err = synth.Generate(p) })
		if err != nil {
			return nil, err
		}
		c := model.Cluster{P: coldProcs, Bandwidth: p.Bandwidth, Overlap: true}
		e.tr.timed("model.Tables", 0, int64(i), func() { tg.Tables(c.P) })
		lb, err := locmps.MakespanLowerBound(tg, c)
		if err != nil {
			return nil, err
		}
		suite[i] = coldInst{tg: tg, c: c, lb: lb}
	}
	return suite, nil
}

func runCold(e *env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var suite []coldInst
	if err := setupTimes(out, func() (err error) {
		suite, err = coldSetup(e)
		return err
	}); err != nil {
		return nil, err
	}

	// Measurement: one caller, a fresh scheduler per call, until the
	// window closes and the prefix has run.
	type done struct {
		inst    int
		s       *schedule.Schedule
		metrics locmps.RunMetrics
	}
	var runs []done
	var ot opTimes
	window := e.measureFor()
	p0 := sampleProc()
	for op := 0; op < coldPrefix || time.Since(p0.at) < window; op++ {
		in := suite[op%len(suite)]
		opID := e.tr.begin("cold.op", 0, int64(op))
		t0 := now()
		alg := locmps.NewLoCMPS()
		var s *schedule.Schedule
		var err error
		e.tr.timed("core.Schedule", opID, int64(op), func() { s, err = alg.Schedule(in.tg, in.c) })
		ot.add(t0, now())
		e.tr.end(opID)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("instance %d: %v", op%len(suite), err)
			continue
		}
		m, _ := locmps.SearchMetrics(alg)
		runs = append(runs, done{op % len(suite), s, m})
	}
	timings(out, len(runs), ot, 0.9, p0, sampleProc())

	// Correctness: every distinct schedule is audit-clean with full
	// accounting, and a repeated instance reproduces its schedule exactly.
	first := map[int]*schedule.Schedule{}
	var ratios []float64
	var prefix locmps.RunMetrics
	for _, d := range runs {
		if prev, ok := first[d.inst]; ok {
			if !sameSchedule(prev, d.s, suite[d.inst].tg.M()) {
				out.failed++
				out.problem("instance %d: repeated search gave a different schedule", d.inst)
			}
			continue
		}
		first[d.inst] = d.s
		in := suite[d.inst]
		var rep *audit.Report
		e.tr.timed("audit.Check", 0, int64(d.inst), func() {
			rep = audit.Check(in.tg, d.s, audit.Options{RequireAccounting: true})
		})
		if err := rep.Err(); err != nil {
			out.failed++
			out.problem("instance %d: %v", d.inst, err)
		}
		if d.inst < coldPrefix {
			ratios = append(ratios, d.s.Makespan/in.lb)
			addMetrics(&prefix, d.metrics)
		}
	}
	if len(ratios) != coldPrefix {
		out.problem("only %d of the %d prefix instances scheduled", len(ratios), coldPrefix)
	}
	out.e2e["quality"] = geomean(ratios)
	out.named = []namedValue{
		{"sched_per_cpu_s", "1/s", out.e2e["ops_per_cpu_s"]},
		{"sched_cpu_p50_s", "s", out.e2e["op_cpu_p50_s"]},
		{"sched_cpu_p90_s", "s", out.e2e["op_cpu_tail_s"]},
		{"sched_per_s", "1/s", out.layer["wall.ops_per_s"]},
		{"sched_p50_s", "s", out.layer["wall.op_p50_s"]},
		{"sched_p90_s", "s", out.layer["wall.op_tail_s"]},
		{"makespan_over_lb", "ratio", out.e2e["quality"]},
		{"alloc_bytes_per_op", "B", out.e2e["alloc_bytes_per_op"]},
		{"setup_cpu_s", "s", out.e2e["setup_s"]},
		{"setup_wall_s", "s", out.setupWall},
		{"schedules", "count", float64(len(runs))},
	}
	if e.tr == nil || len(out.problems) > 0 {
		return out, nil
	}

	// Per-layer probes, outside the window.
	coreLayer(out.layer, prefix)
	var locbsRuns int
	for _, d := range runs {
		locbsRuns += d.metrics.LoCBSRuns
	}
	sched := e.tr.durations("core.Schedule")
	out.layer["core.schedule_s"] = median(sched)
	// Printed in the human report only: the search's share of the
	// operation wall time, the rest being the benchmark's own loop.
	out.layer["core.schedule_share"] = ratio(sum(sched), sum(e.tr.durations("cold.op")))
	out.layer["core.s_per_locbs_run"] = ratio(sum(sched), float64(locbsRuns))
	// The kernel probes run on the prefix instances, so their counts are
	// a function of the seed.
	var edges int
	for inst := 0; inst < coldPrefix; inst++ {
		s, in := first[inst], suite[inst]
		np := make([]int, in.tg.N())
		for t, pl := range s.Placements {
			np[t] = pl.NP()
		}
		var err error
		e.tr.timed("core.LoCBS", 0, int64(inst), func() { _, err = core.LoCBS(in.tg, in.c, np, core.DefaultConfig()) })
		if err != nil {
			return nil, fmt.Errorf("instance %d: LoCBS probe: %w", inst, err)
		}
		if coldCCRs[inst%len(coldCCRs)] != 1.0 {
			continue
		}
		m := redist.Model{BlockBytes: core.DefaultBlockBytes, Bandwidth: in.c.Bandwidth}
		all := in.tg.Edges()
		e.tr.timed("redist.FastCost", 0, int64(inst), func() {
			for k := 0; k < fastCostSweeps && err == nil; k++ {
				for _, ed := range all {
					if _, err = m.FastCost(ed.Volume, s.Placements[ed.From].Procs, s.Placements[ed.To].Procs); err != nil {
						break
					}
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("instance %d: FastCost: %w", inst, err)
		}
		edges += len(all)
	}
	out.layer["core.locbs_probe_s"] = median(e.tr.durations("core.LoCBS"))
	out.layer["redist.edges_priced"] = float64(edges)
	out.layer["redist.fastcost_ns_per_edge"] = ratio(sum(e.tr.durations("redist.FastCost"))*1e9, float64(edges*fastCostSweeps))
	out.layer["model.tables_s"] = median(e.tr.durations("model.Tables"))
	out.layer["synth.generate_s"] = median(e.tr.durations("synth.Generate"))
	out.layer["audit.check_s"] = median(e.tr.durations("audit.Check"))
	return out, nil
}

func addMetrics(dst *locmps.RunMetrics, m locmps.RunMetrics) {
	dst.OuterIterations += m.OuterIterations
	dst.LookAheadSteps += m.LookAheadSteps
	dst.LoCBSRuns += m.LoCBSRuns
	dst.CacheHits += m.CacheHits
	dst.CacheMisses += m.CacheMisses
	dst.WindowRuns += m.WindowRuns
	dst.SpeculativeRuns += m.SpeculativeRuns
	dst.SpeculativeWaste += m.SpeculativeWaste
	dst.ReplayedTasks += m.ReplayedTasks
	dst.ResumedRuns += m.ResumedRuns
	dst.RollbackDepth += m.RollbackDepth
	dst.PrunedRuns += m.PrunedRuns
	dst.ProbeFanouts += m.ProbeFanouts
}

// coreLayer reports the search counters of a fixed set of searches.
func coreLayer(layer map[string]float64, m locmps.RunMetrics) {
	layer["core.locbs_runs"] = float64(m.LoCBSRuns)
	layer["core.outer_iterations"] = float64(m.OuterIterations)
	layer["core.lookahead_steps"] = float64(m.LookAheadSteps)
	layer["core.memo_hit_rate"] = m.CacheHitRate()
	layer["core.resumed_runs"] = float64(m.ResumedRuns)
	layer["core.replayed_tasks"] = float64(m.ReplayedTasks)
	layer["core.rollback_depth"] = float64(m.RollbackDepth)
	layer["core.window_runs"] = float64(m.WindowRuns)
	layer["core.speculative_useful_ratio"] = ratio(float64(m.SpeculativeRuns-m.SpeculativeWaste), float64(m.SpeculativeRuns))
	layer["core.probe_fanouts"] = float64(m.ProbeFanouts)
	layer["core.pruned_runs"] = float64(m.PrunedRuns)
}

// sameSchedule compares everything the wire carries except the
// scheduling wall time: algorithm, cluster, placements, the charges of
// the graph's m edges and makespan, floats bit for bit.
func sameSchedule(a, b *schedule.Schedule, m int) bool {
	if a.Algorithm != b.Algorithm || a.Cluster != b.Cluster || a.Makespan != b.Makespan ||
		len(a.Placements) != len(b.Placements) {
		return false
	}
	for t, pa := range a.Placements {
		pb := b.Placements[t]
		if pa.Start != pb.Start || pa.Finish != pb.Finish || pa.DataReady != pb.DataReady ||
			pa.CommTime != pb.CommTime || len(pa.Procs) != len(pb.Procs) {
			return false
		}
		for i, p := range pa.Procs {
			if pb.Procs[i] != p {
				return false
			}
		}
	}
	for i := 0; i < m; i++ {
		if a.CommID(i) != b.CommID(i) {
			return false
		}
	}
	return true
}
