package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"locmps"
	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
	"locmps/internal/synth"
)

const (
	serveProcs                   = 16
	serveMinTasks, serveMaxTasks = 20, 30
	// serveHot is the hot-set size warmed during set-up; every
	// serveFreshEvery-th request is a fresh instance instead, so the
	// share of misses is the same in every run.
	serveHot        = 16
	serveFreshEvery = 10
	// serveFreshPerSecond sizes the pool of pre-generated fresh instances
	// per second of window; a run that drains the pool ends its window
	// early rather than generate inputs while timing.
	serveFreshPerSecond = 20
	// serveColdChecks fresh responses are re-scheduled cold on a separate
	// in-process service as the cross-check of the cached path.
	serveColdChecks = 3
	// serveProbeReps is the sample size of each standalone layer probe.
	serveProbeReps = 200
)

type serveInst struct {
	req serve.Request
	lb  float64
}

// serveRig is one set-up: an HTTP node over a service with a disk L2,
// the client, the warmed hot set and the fresh pool.
type serveRig struct {
	dir    string
	svc    *serve.Service
	node   *httpserve.Server
	hs     *http.Server
	served chan error
	client *httpserve.Client
	hot    []serveInst
	hotRef []*schedule.Schedule
	fresh  []serveInst
}

// serveInstance generates a DAG of the given size and CCR; the seeded r
// picks its structure.
func serveInstance(r *rand.Rand, tr *tracer, op int64, tasks int, ccr float64) (serveInst, error) {
	p := synth.DefaultParams()
	p.Tasks = tasks
	p.CCR = ccr
	p.Seed = r.Int63()
	var tg *model.TaskGraph
	var err error
	tr.timed("synth.Generate", 0, op, func() { tg, err = synth.Generate(p) })
	if err != nil {
		return serveInst{}, err
	}
	c := model.Cluster{P: serveProcs, Bandwidth: p.Bandwidth, Overlap: true}
	tr.timed("model.Tables", 0, op, func() { tg.Tables(c.P) })
	lb, err := locmps.MakespanLowerBound(tg, c)
	return serveInst{req: serve.Request{Graph: tg, Cluster: c}, lb: lb}, err
}

func serveSetup(e *env) (*serveRig, error) {
	// Sizes and CCRs are spread evenly over both sets rather than drawn,
	// so that a hit's cost, which grows with the instance, and the
	// warm-up's do not vary with the seed through them.
	r := rand.New(rand.NewSource(e.cfg.seed))
	rig := &serveRig{}
	sizes := serveMaxTasks - serveMinTasks + 1
	for i := 0; i < serveHot; i++ {
		in, err := serveInstance(r, e.tr, int64(i), serveMinTasks+i*sizes/serveHot, coldCCRs[i%len(coldCCRs)])
		if err != nil {
			return nil, err
		}
		rig.hot = append(rig.hot, in)
	}
	for i := 0; i < int(e.cfg.seconds*serveFreshPerSecond)+1; i++ {
		in, err := serveInstance(r, e.tr, int64(serveHot+i), serveMinTasks+i%sizes, coldCCRs[i%len(coldCCRs)])
		if err != nil {
			return nil, err
		}
		rig.fresh = append(rig.fresh, in)
	}

	var err error
	if rig.dir, err = os.MkdirTemp(e.cfg.workdir, "l2-"); err != nil {
		return nil, err
	}
	l2, err := serve.OpenDiskCache(rig.dir, 0)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.svc = serve.New(serve.Config{L2: l2})
	rig.node = httpserve.NewServer(rig.svc, httpserve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.hs = &http.Server{Handler: rig.node.Handler()}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()
	if rig.client, err = httpserve.NewClient(httpserve.ClientConfig{Nodes: []string{ln.Addr().String()}}); err != nil {
		rig.close()
		return nil, err
	}

	// Warm-up: the in-process result of every hot instance is the
	// reference its HTTP responses must match; then the client fetches
	// each one once, filling the node's response cache and the client's
	// own result cache.
	ctx := context.Background()
	for _, in := range rig.hot {
		s, err := rig.svc.Schedule(in.req)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		rig.hotRef = append(rig.hotRef, s)
	}
	for i, in := range rig.hot {
		s, err := rig.client.Schedule(ctx, in.req)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up over HTTP: %w", err)
		}
		if !sameWire(s, rig.hotRef[i], in.req.Graph.M()) {
			rig.close()
			return nil, fmt.Errorf("warm-up: hot instance %d differs over HTTP", i)
		}
	}
	return rig, nil
}

func (rig *serveRig) close() {
	if rig.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = rig.hs.Shutdown(ctx) // best effort: the listener is closed either way
		cancel()
		<-rig.served
	}
	if rig.client != nil {
		rig.client.Close()
	}
	if rig.svc != nil {
		rig.svc.Close()
	}
	if rig.dir != "" {
		os.RemoveAll(rig.dir)
	}
}

// serveReq is one measured request: a hot-set index or a fresh-pool
// index (the other is -1), its latency and its outcome.
type serveReq struct {
	hot, fresh int
	lat        float64
	err        error
	s          *schedule.Schedule
}

func runServe(e *env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rig *serveRig
	if err := setupTimes(out, func() (err error) {
		if rig != nil {
			rig.close()
		}
		rig, err = serveSetup(e)
		return err
	}); err != nil {
		if rig != nil {
			rig.close()
		}
		return nil, err
	}
	defer rig.close()

	// Measurement: the client sends its next request when the previous
	// one returns; a seeded draw picks the hot instance. One client keeps
	// one request in flight, so the process's CPU time across a request
	// is that request's cost, client and node together.
	svc0, node0, cl0 := rig.stats()
	var reqs []serveReq
	var ot opTimes
	r := rand.New(rand.NewSource(e.cfg.seed * 7919))
	ctx := context.Background()
	p0 := sampleProc()
	for k := 0; time.Since(p0.at) < e.measureFor(); k++ {
		sr := serveReq{hot: r.Intn(len(rig.hot)), fresh: -1}
		in := rig.hot[sr.hot]
		if k%serveFreshEvery == serveFreshEvery-1 {
			if sr.hot, sr.fresh = -1, k/serveFreshEvery; sr.fresh == len(rig.fresh) {
				break
			}
			in = rig.fresh[sr.fresh]
		}
		id := e.tr.begin("serve.request", 0, int64(len(reqs)))
		t0 := now()
		sr.s, sr.err = rig.client.Schedule(ctx, in.req)
		sr.lat = ot.add(t0, now())
		e.tr.end(id)
		reqs = append(reqs, sr)
	}
	p1 := sampleProc()
	svc1, node1, cl1 := rig.stats()

	// Failed requests (transport errors, 503s, shedding) count against
	// attempts and miss every latency limit: each is charged the CPU time
	// of the whole window. Every response must equal the in-process result
	// for its request.
	var hitLat []float64
	freshSeen := map[int]*schedule.Schedule{}
	for k, sr := range reqs {
		out.attempted++
		if sr.err != nil {
			out.failed++
			ot.cpu[k] = (p1.cpu - p0.cpu).Seconds()
			ot.wall[k] = p1.at.Sub(p0.at).Seconds()
			continue
		}
		if sr.hot >= 0 {
			hitLat = append(hitLat, sr.lat)
			if !sameSchedule(sr.s, rig.hotRef[sr.hot], rig.hot[sr.hot].req.Graph.M()) {
				out.failed++
				out.problem("hot instance %d: HTTP response differs from the in-process result", sr.hot)
			}
			continue
		}
		freshSeen[sr.fresh] = sr.s
	}
	timings(out, out.attempted-out.failed, ot, 0.99, p0, p1)
	var ratios []float64
	for i, in := range rig.hot {
		ratios = append(ratios, rig.hotRef[i].Makespan/in.lb)
		var rep *audit.Report
		e.tr.timed("audit.Check", 0, int64(i), func() {
			rep = audit.Check(in.req.Graph, rig.hotRef[i], audit.Options{RequireAccounting: true})
		})
		if err := rep.Err(); err != nil {
			out.problem("hot instance %d: %v", i, err)
		}
	}
	out.e2e["quality"] = geomean(ratios)

	// Fresh responses against the in-process service, compared in wire
	// form with the scheduling time masked; a few are also re-scheduled
	// cold on a separate service, which checks the cached path itself.
	ref := serve.New(serve.Config{})
	defer ref.Close()
	var coldChecks int
	for i := range rig.fresh {
		got, seen := freshSeen[i]
		if !seen {
			continue
		}
		in := rig.fresh[i]
		want, err := rig.svc.Schedule(in.req)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		if !sameWire(got, want, in.req.Graph.M()) {
			out.failed++
			out.problem("fresh instance %d: HTTP response differs from the in-process result", i)
		}
		if coldChecks < serveColdChecks {
			coldChecks++
			var cold *schedule.Schedule
			e.tr.timed("serve.inproc_miss", 0, int64(i), func() { cold, err = ref.Schedule(in.req) })
			if err != nil {
				return nil, fmt.Errorf("cold reference: %w", err)
			}
			if !sameWire(got, cold, in.req.Graph.M()) {
				out.failed++
				out.problem("fresh instance %d: cached result differs from a cold in-process search", i)
			}
		}
	}

	out.named = []namedValue{
		{"req_per_cpu_s", "1/s", out.e2e["ops_per_cpu_s"]},
		{"req_cpu_p50_s", "s", out.e2e["op_cpu_p50_s"]},
		{"req_cpu_p99_s", "s", out.e2e["op_cpu_tail_s"]},
		{"req_per_s", "1/s", out.layer["wall.ops_per_s"]},
		{"req_p50_s", "s", out.layer["wall.op_p50_s"]},
		{"req_p99_s", "s", out.layer["wall.op_tail_s"]},
		{"hit_p50_s", "s", median(hitLat)},
		{"makespan_over_lb", "ratio", out.e2e["quality"]},
		{"alloc_bytes_per_op", "B", out.e2e["alloc_bytes_per_op"]},
		{"setup_cpu_s", "s", out.e2e["setup_s"]},
		{"setup_wall_s", "s", out.setupWall},
		{"requests", "count", float64(out.attempted)},
		{"fresh_requests", "count", float64(len(freshSeen))},
	}
	if e.tr == nil {
		return out, nil
	}

	// Per-layer: service and transport counters over the window, then
	// standalone timed calls into each serve layer on the hot set.
	d := func(a, b uint64) float64 { return float64(b - a) }
	out.layer["serve.requests"] = d(svc0.Requests, svc1.Requests)
	out.layer["serve.cache_hit_rate"] = ratio(d(svc0.CacheHits, svc1.CacheHits), d(svc0.Requests, svc1.Requests))
	out.layer["serve.coalesced"] = d(svc0.Coalesced, svc1.Coalesced)
	out.layer["serve.scheduled"] = d(svc0.Scheduled, svc1.Scheduled)
	out.layer["serve.rejected"] = d(svc0.Rejected, svc1.Rejected)
	out.layer["serve.l2_hits"] = d(svc0.L2Hits, svc1.L2Hits)
	out.layer["serve.l2_writes"] = d(svc0.L2Writes, svc1.L2Writes)
	sh := d(svc0.SharedStateHits, svc1.SharedStateHits)
	out.layer["serve.shared_state_hit_rate"] = ratio(sh, sh+d(svc0.SharedStateMisses, svc1.SharedStateMisses))
	out.layer["serve.evictions"] = d(svc0.Evictions, svc1.Evictions)
	out.layer["httpserve.hedges"] = d(cl0.Hedges, cl1.Hedges)
	out.layer["httpserve.failovers"] = d(cl0.Failovers, cl1.Failovers)
	out.layer["httpserve.revalidated"] = d(cl0.Revalidated, cl1.Revalidated)
	out.layer["httpserve.shed"] = d(node0.Shed, node1.Shed)
	out.layer["httpserve.served"] = d(node0.Served, node1.Served)
	if err := serveProbes(e, rig); err != nil {
		return nil, err
	}
	for name, span := range map[string]string{
		"serve.fingerprint_s":       "serve.Fingerprint",
		"serve.wire_req_encode_s":   "serve.WireFromRequest",
		"serve.wire_req_decode_s":   "serve.WireRequest.ToRequest",
		"serve.wire_sched_encode_s": "serve.WireFromSchedule",
		"serve.wire_sched_decode_s": "serve.WireSchedule.ToSchedule",
		"serve.inproc_hit_s":        "serve.inproc_hit",
		"serve.inproc_miss_s":       "serve.inproc_miss",
		"serve.l2_get_s":            "serve.DiskCache.Get",
		"serve.l2_put_s":            "serve.DiskCache.Put",
		"model.tables_s":            "model.Tables",
		"synth.generate_s":          "synth.Generate",
		"audit.check_s":             "audit.Check",
	} {
		out.layer[name] = median(e.tr.durations(span))
	}
	out.layer["httpserve.overhead_s"] = median(hitLat) - out.layer["serve.inproc_hit_s"]
	return out, nil
}

// serveProbes times each serve layer's public functions on the hot set:
// fingerprinting, the wire codec for requests and schedules (encode is
// conversion plus JSON marshalling, decode the reverse), an in-process
// L1 hit and a disk L2 put and get.
func serveProbes(e *env, rig *serveRig) error {
	dir, err := os.MkdirTemp(e.cfg.workdir, "l2probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l2, err := serve.OpenDiskCache(dir, 0)
	if err != nil {
		return err
	}
	tr := e.tr
	for k := 0; k < serveProbeReps; k++ {
		i := k % len(rig.hot)
		req, ref, op := rig.hot[i].req, rig.hotRef[i], int64(k)
		var key serve.Key
		tr.timed("serve.Fingerprint", 0, op, func() { key, err = req.Fingerprint() })
		if err != nil {
			return err
		}
		var body []byte
		tr.timed("serve.WireFromRequest", 0, op, func() {
			var w *serve.WireRequest
			if w, err = serve.WireFromRequest(req, core.Budget{}); err == nil {
				body, err = json.Marshal(w)
			}
		})
		if err != nil {
			return err
		}
		tr.timed("serve.WireRequest.ToRequest", 0, op, func() {
			var w serve.WireRequest
			if err = json.Unmarshal(body, &w); err == nil {
				_, _, err = w.ToRequest()
			}
		})
		if err != nil {
			return err
		}
		tr.timed("serve.WireFromSchedule", 0, op, func() {
			body, err = json.Marshal(serve.WireFromSchedule(ref, req.Graph.M()))
		})
		if err != nil {
			return err
		}
		tr.timed("serve.WireSchedule.ToSchedule", 0, op, func() {
			var w serve.WireSchedule
			if err = json.Unmarshal(body, &w); err == nil {
				_, err = w.ToSchedule(req.Graph)
			}
		})
		if err != nil {
			return err
		}
		tr.timed("serve.inproc_hit", 0, op, func() { _, err = rig.svc.Schedule(req) })
		if err != nil {
			return err
		}
		tr.timed("serve.DiskCache.Put", 0, op, func() { l2.Put(key, req, ref, false) })
		var hit bool
		tr.timed("serve.DiskCache.Get", 0, op, func() { _, _, hit = l2.Get(key, req) })
		if !hit {
			return fmt.Errorf("L2 probe: entry %d missing right after Put", i)
		}
	}
	return nil
}

func (rig *serveRig) stats() (serve.Stats, httpserve.NodeStats, httpserve.ClientStats) {
	return rig.svc.Stats(), rig.node.Stats(), rig.client.Stats()
}

// sameWire compares two schedules in wire form with the scheduling time
// masked.
func sameWire(a, b *schedule.Schedule, m int) bool {
	wa, wb := serve.WireFromSchedule(a, m), serve.WireFromSchedule(b, m)
	wa.SchedulingTimeNS, wb.SchedulingTimeNS = 0, 0
	ja, errA := json.Marshal(wa)
	jb, errB := json.Marshal(wb)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
