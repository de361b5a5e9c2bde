package main

import (
	"fmt"
	"time"

	"locmps"
	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/stream"
	"locmps/internal/synth"
)

// The stream-churn scenario: a bursty Poisson stream of DAG jobs on 64
// processors, every job hit by one mid-run task failure, and the cluster
// shrunk to half and regrown while jobs are in flight.
//
// The workload is not in BENCHMARK.json: on some seeds the drained end
// state double-books processors and fails the end-state audit, with or
// without failures and resizes (TestStreamChurnEndState pins seed 3).
// Run it by name to see the failure.
const (
	streamProcs                    = 64
	streamJobs                     = 60
	streamRate                     = 0.008
	streamBurst, streamBurstSize   = 4, 3
	streamMinTasks, streamMaxTasks = 10, 40
	streamCCR                      = 0.5
	// streamFailAfter is how long after its arrival each job loses its
	// lowest-id running task.
	streamFailAfter = 10
)

// streamSetup generates the jobs, builds their tables and computes each
// job's own lower bound on the whole cluster.
func streamSetup(e *env) (stream.Config, []float64, error) {
	gp := synth.DefaultParams()
	gp.CCR = streamCCR
	var jobs []stream.Job
	var err error
	e.tr.timed("stream.PoissonJobs", 0, 0, func() {
		jobs, err = stream.PoissonJobs(stream.PoissonOpts{
			Jobs: streamJobs, Rate: streamRate, Burst: streamBurst, BurstSize: streamBurstSize,
			MinTasks: streamMinTasks, MaxTasks: streamMaxTasks, Graph: gp, Seed: e.cfg.seed,
		})
	})
	if err != nil {
		return stream.Config{}, nil, err
	}
	cl := model.Cluster{P: streamProcs, Bandwidth: gp.Bandwidth, Overlap: true}
	cfg := stream.Config{Cluster: cl, Jobs: jobs}
	lbs := make([]float64, len(jobs))
	for i, j := range jobs {
		e.tr.timed("model.Tables", 0, int64(i), func() { j.TG.Tables(cl.P) })
		if lbs[i], err = locmps.MakespanLowerBound(j.TG, cl); err != nil {
			return stream.Config{}, nil, err
		}
		cfg.Failures = append(cfg.Failures, stream.Fail{Time: j.Arrival + streamFailAfter, Job: i})
	}
	cfg.Resizes = []stream.Resize{
		{Time: jobs[len(jobs)/3].Arrival + 5, Procs: cl.P / 2},
		{Time: jobs[2*len(jobs)/3].Arrival + 5, Procs: cl.P},
	}
	return cfg, lbs, nil
}

// stepKind classifies an event by what its rescheduling decision did.
func stepKind(rec stream.EventRecord) string {
	switch {
	case rec.FastPath:
		return "fastpath"
	case rec.Remap:
		return "remap"
	case rec.Arrivals+rec.Failures > 0 || rec.Resized:
		if rec.ActiveJobs > 0 {
			return "search"
		}
	}
	return "idle"
}

// replay is one drained stream.
type replay struct {
	res      *stream.Result
	response []float64 // per job: completion minus arrival
}

func runStream(e *env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var cfg stream.Config
	var lbs []float64
	if err := setupTimes(out, func() (err error) {
		cfg, lbs, err = streamSetup(e)
		return err
	}); err != nil {
		return nil, err
	}

	// Measurement: whole replays, stream.New then Step until drained,
	// until the window closes (at least one replay).
	var replays []replay
	byKind := map[string][]float64{}
	var resched opTimes // steps that searched or remapped
	window := e.measureFor()
	var events int
	p0 := sampleProc()
	for len(replays) == 0 || time.Since(p0.at) < window {
		sim, err := stream.New(cfg)
		if err != nil {
			return nil, err
		}
		for op := int64(0); ; op++ {
			id := e.tr.begin("stream.Step", 0, op)
			t0 := now()
			rec, ok, err := sim.Step()
			t1 := now()
			e.tr.end(id)
			if err != nil {
				out.attempted++
				out.failed++
				out.problem("step %d: %v", op, err)
				break
			}
			if !ok {
				break
			}
			out.attempted++
			events++
			e.tr.record("stream.reschedule", id, op, t1.wall.Add(-rec.Elapsed), t1.wall)
			kind := stepKind(rec)
			wall := t1.wall.Sub(t0.wall).Seconds()
			if kind == "search" || kind == "remap" {
				resched.add(t0, t1)
			}
			byKind[kind] = append(byKind[kind], wall)
		}
		res, err := sim.Result()
		sim.Close()
		if err != nil {
			return nil, err
		}
		rp := replay{res: res}
		for i, j := range cfg.Jobs {
			rp.response = append(rp.response, res.JobCompletion[i]-j.Arrival)
		}
		replays = append(replays, rp)
		if len(out.problems) > 0 {
			break
		}
	}
	timings(out, events, resched, 0.9, p0, sampleProc())

	// Correctness: every emitted plan was audited by Step itself; the end
	// state must be audit-clean with full accounting, and every replay
	// must end exactly like the first.
	first := replays[0]
	if first.res.End == nil {
		out.problem("stream did not drain: no end state")
		return out, nil
	}
	var rep *audit.Report
	e.tr.timed("audit.Check", 0, 0, func() {
		rep = audit.Check(first.res.EndGraph, first.res.End, audit.Options{RequireAccounting: true})
	})
	if err := rep.Err(); err != nil {
		out.problem("end state: %v", err)
	}
	for k, rp := range replays[1:] {
		if rp.res.End == nil || !sameSchedule(first.res.End, rp.res.End, first.res.EndGraph.M()) {
			out.problem("replay %d ended differently from the first", k+1)
		}
	}
	var stretch []float64
	for i, r := range first.response {
		stretch = append(stretch, r/lbs[i])
	}
	out.e2e["quality"] = sum(stretch) / float64(len(stretch))
	out.named = []namedValue{
		{"events_per_cpu_s", "1/s", out.e2e["ops_per_cpu_s"]},
		{"resched_cpu_p50_s", "s", out.e2e["op_cpu_p50_s"]},
		{"resched_cpu_p90_s", "s", out.e2e["op_cpu_tail_s"]},
		{"events_per_s", "1/s", out.layer["wall.ops_per_s"]},
		{"resched_p50_s", "s", out.layer["wall.op_p50_s"]},
		{"resched_p90_s", "s", out.layer["wall.op_tail_s"]},
		{"job_response_mean", "sim-time", sum(first.response) / float64(len(first.response))},
		{"job_stretch_mean", "ratio", out.e2e["quality"]},
		{"alloc_bytes_per_op", "B", out.e2e["alloc_bytes_per_op"]},
		{"setup_cpu_s", "s", out.e2e["setup_s"]},
		{"setup_wall_s", "s", out.setupWall},
		{"events_per_replay", "count", float64(len(first.res.Events))},
		{"searches_or_remaps_per_replay", "count", float64(first.res.Searches + first.res.Remaps)},
		{"replays", "count", float64(len(replays))},
	}
	if e.tr == nil {
		return out, nil
	}

	// Per-layer: the first replay's counters, Step time by event class,
	// and a standalone LoCBS run of each job at its end-state widths.
	res := first.res
	st := res.Stats
	coreLayer(out.layer, st.Metrics())
	var elapsed []float64
	for _, ev := range res.Events {
		if stepKind(ev) == "search" {
			elapsed = append(elapsed, ev.Elapsed.Seconds())
		}
	}
	out.layer["core.schedule_s"] = median(elapsed)
	out.layer["core.s_per_locbs_run"] = ratio(sum(elapsed), float64(st.LoCBSRuns))
	// PoissonJobs emits jobs in arrival order, so the end graph's task
	// blocks follow cfg.Jobs.
	off := 0
	for i, j := range cfg.Jobs {
		np := make([]int, j.TG.N())
		for t := range np {
			np[t] = res.End.Placements[off+t].NP()
		}
		off += j.TG.N()
		var err error
		e.tr.timed("core.LoCBS", 0, int64(i), func() { _, err = core.LoCBS(j.TG, cfg.Cluster, np, core.DefaultConfig()) })
		if err != nil {
			return nil, fmt.Errorf("job %d: LoCBS probe: %w", i, err)
		}
	}
	out.layer["core.locbs_probe_s"] = median(e.tr.durations("core.LoCBS"))
	out.layer["model.tables_s"] = median(e.tr.durations("model.Tables"))
	// PoissonJobs generates every job's graph; synth's share is per job.
	out.layer["synth.generate_s"] = median(e.tr.durations("stream.PoissonJobs")) / float64(len(cfg.Jobs))
	out.layer["audit.check_s"] = median(e.tr.durations("audit.Check"))
	out.layer["stream.search_step_s"] = median(byKind["search"])
	out.layer["stream.remap_step_s"] = median(byKind["remap"])
	out.layer["stream.fastpath_step_s"] = median(byKind["fastpath"])
	out.layer["stream.step_overhead_s"] = median(e.tr.selfTimes("stream.Step"))
	n := float64(len(res.Events))
	out.layer["stream.events"] = n
	out.layer["stream.searches"] = float64(res.Searches)
	out.layer["stream.fast_paths"] = float64(res.ResumedRuns)
	out.layer["stream.remaps"] = float64(res.Remaps)
	out.layer["stream.fastpath_ratio"] = ratio(float64(res.ResumedRuns), n)
	out.layer["stream.max_active_tasks"] = float64(res.MaxActiveTasks)
	out.layer["stream.replayed_tasks"] = float64(st.ReplayedTasks)
	out.layer["stream.locbs_runs"] = float64(st.LoCBSRuns)
	return out, nil
}
