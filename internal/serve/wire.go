package serve

import (
	"encoding/hex"
	"fmt"
	"time"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

// WireVersion names the network/disk encoding of requests and schedules.
// Every wire message carries it in its "schema" field and decoders reject
// anything they do not speak, so two nodes can never half-understand each
// other. Bump it whenever a field changes meaning; adding optional fields
// is backward-compatible and needs no bump.
//
// v2 added the optional portfolio engine list to WireRequest. v1 payloads
// are a strict subset (no portfolio field existed), so decoders accept
// both; encoders always emit v2.
const WireVersion = "locmps/wire/v2"

// wireVersionV1 is the previous schema, still accepted on decode.
const wireVersionV1 = "locmps/wire/v1"

// WireSchemaOK reports whether this node can decode the given schema
// (the current version or the previous one).
func WireSchemaOK(schema string) bool {
	return schema == WireVersion || schema == wireVersionV1
}

// WireRequest is the versioned network form of a Request plus an optional
// anytime budget. It is derived from exactly the canonical fingerprint
// inputs: per-task execution-time curves sampled at 1..P (the only values
// any scheduler in this module reads), edges in dense (From, To) order with
// data volumes, the cluster, and the normalized options. Two requests that
// fingerprint identically therefore encode identically (task names aside),
// and a decoded request fingerprints to the same Key the sender computed —
// which is what makes cross-node cache routing by fingerprint sound.
type WireRequest struct {
	Schema  string       `json:"schema"`
	Tasks   []WireTask   `json:"tasks"`
	Edges   []WireEdge   `json:"edges,omitempty"`
	Cluster WireCluster  `json:"cluster"`
	Options *WireOptions `json:"options,omitempty"`
	Budget  *WireBudget  `json:"budget,omitempty"`
	// Portfolio selects portfolio mode (wire/v2): the named engines race
	// and the winner is returned. Order is semantic — it is the
	// deterministic tie-break and part of the fingerprint. Mutually
	// exclusive with Options.
	Portfolio []string `json:"portfolio,omitempty"`
}

// WireTask carries one task: a cosmetic name and the execution-time curve
// et(t, 1..len(ET)). Queries beyond the curve saturate at its last value
// (speedup.Table semantics); encoders always emit exactly P points.
type WireTask struct {
	Name string    `json:"name,omitempty"`
	ET   []float64 `json:"et"`
}

// WireEdge is one precedence edge with its data volume in bytes.
type WireEdge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Volume float64 `json:"volume,omitempty"`
}

// WireCluster mirrors model.Cluster.
type WireCluster struct {
	P         int     `json:"p"`
	Bandwidth float64 `json:"bandwidth"`
	Overlap   bool    `json:"overlap,omitempty"`
}

// WireOptions mirrors Options; absent fields select the defaults.
type WireOptions struct {
	Algorithm      string  `json:"algorithm,omitempty"`
	Dual           bool    `json:"dual,omitempty"`
	LookAheadDepth int     `json:"look_ahead_depth,omitempty"`
	TopFraction    float64 `json:"top_fraction,omitempty"`
	BlockBytes     float64 `json:"block_bytes,omitempty"`
	MaxIterations  int     `json:"max_iterations,omitempty"`
}

// WireBudget is an anytime budget crossing the wire. Wall-clock deadlines
// are relative (nanoseconds from arrival), never absolute instants — the
// two hosts' clocks need not agree, and a queued absolute deadline would
// rot while the request travelled.
type WireBudget struct {
	MaxIterations int   `json:"max_iterations,omitempty"`
	DeadlineNS    int64 `json:"deadline_ns,omitempty"`
}

// WireFromRequest encodes a request and budget for the wire. Profiles are
// sampled at et(t, 1..P) — exactly the values Fingerprint hashes — so the
// decoded request fingerprints identically to r even when r's profiles are
// parametric (Downey, Amdahl) rather than tables.
func WireFromRequest(r Request, b core.Budget) (*WireRequest, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	P := r.Cluster.P
	w := &WireRequest{
		Schema:  WireVersion,
		Tasks:   make([]WireTask, r.Graph.N()),
		Cluster: WireCluster{P: P, Bandwidth: r.Cluster.Bandwidth, Overlap: r.Cluster.Overlap},
	}
	for t := 0; t < r.Graph.N(); t++ {
		et := make([]float64, P)
		prof := r.Graph.Tasks[t].Profile
		for p := 1; p <= P; p++ {
			et[p-1] = prof.Time(p)
		}
		w.Tasks[t] = WireTask{Name: r.Graph.Tasks[t].Name, ET: et}
	}
	for _, e := range r.Graph.Edges() { // dense (From, To) order
		w.Edges = append(w.Edges, WireEdge{From: e.From, To: e.To, Volume: e.Volume})
	}
	if o := r.Options; o != (Options{}) {
		w.Options = &WireOptions{
			Algorithm:      o.Algorithm,
			Dual:           o.Dual,
			LookAheadDepth: o.LookAheadDepth,
			TopFraction:    o.TopFraction,
			BlockBytes:     o.BlockBytes,
			MaxIterations:  o.MaxIterations,
		}
	}
	if r.portfolio() {
		w.Portfolio = append([]string(nil), r.Portfolio...)
	}
	if b.MaxIterations > 0 || !b.Deadline.IsZero() {
		wb := &WireBudget{MaxIterations: b.MaxIterations}
		if !b.Deadline.IsZero() {
			ns := time.Until(b.Deadline).Nanoseconds()
			if ns < 1 {
				ns = 1 // already past: the receiver should truncate immediately
			}
			wb.DeadlineNS = ns
		}
		w.Budget = wb
	}
	return w, nil
}

// MaxWireProcs caps the cluster size a wire request may declare.
// Fingerprinting samples every task's curve at 1..P, so an uncapped P lets
// one small body buy O(N·P) work before admission control sees it. The cap
// sits far above any cluster the scheduler is run on.
const MaxWireProcs = 4096

// ToRequest decodes the wire form back into a Request and budget. The
// returned budget's Deadline, when present, is re-anchored at the local
// clock: now + DeadlineNS. It validates the schema version, the graph and
// the cluster (P at most MaxWireProcs); a request that decodes successfully
// always fingerprints.
func (w *WireRequest) ToRequest() (Request, core.Budget, error) {
	var b core.Budget
	if !WireSchemaOK(w.Schema) {
		return Request{}, b, fmt.Errorf("serve: wire schema %q not supported (this node speaks %q)", w.Schema, WireVersion)
	}
	if w.Cluster.P > MaxWireProcs {
		return Request{}, b, fmt.Errorf("serve: cluster P=%d exceeds the wire limit %d", w.Cluster.P, MaxWireProcs)
	}
	tasks := make([]model.Task, len(w.Tasks))
	for i, wt := range w.Tasks {
		prof, err := speedup.NewTable(wt.ET)
		if err != nil {
			return Request{}, b, fmt.Errorf("serve: task %d: %w", i, err)
		}
		tasks[i] = model.Task{Name: wt.Name, Profile: prof}
	}
	edges := make([]model.Edge, len(w.Edges))
	for i, we := range w.Edges {
		edges[i] = model.Edge{From: we.From, To: we.To, Volume: we.Volume}
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		return Request{}, b, err
	}
	req := Request{
		Graph:   tg,
		Cluster: model.Cluster{P: w.Cluster.P, Bandwidth: w.Cluster.Bandwidth, Overlap: w.Cluster.Overlap},
	}
	if o := w.Options; o != nil {
		req.Options = Options{
			Algorithm:      o.Algorithm,
			Dual:           o.Dual,
			LookAheadDepth: o.LookAheadDepth,
			TopFraction:    o.TopFraction,
			BlockBytes:     o.BlockBytes,
			MaxIterations:  o.MaxIterations,
		}
	}
	if len(w.Portfolio) > 0 {
		req.Portfolio = append([]string(nil), w.Portfolio...)
	}
	if err := req.validate(); err != nil {
		return Request{}, b, err
	}
	if wb := w.Budget; wb != nil {
		b.MaxIterations = wb.MaxIterations
		if wb.DeadlineNS > 0 {
			b.Deadline = time.Now().Add(time.Duration(wb.DeadlineNS))
		}
	}
	return req, b, nil
}

// WirePlacement is one task's placement on the wire.
type WirePlacement struct {
	Procs     []int   `json:"procs"`
	Start     float64 `json:"start"`
	Finish    float64 `json:"finish"`
	DataReady float64 `json:"data_ready,omitempty"`
	CommTime  float64 `json:"comm_time,omitempty"`
}

// WireSchedule is the network/disk form of a schedule.Schedule. Every
// float crosses as a JSON number, which Go round-trips bit-exactly
// (shortest-representation formatting), so a decoded schedule equals the
// in-process one byte for byte. SchedulingTimeNS is wall clock and the one
// field differential tests are expected to mask.
type WireSchedule struct {
	Algorithm  string          `json:"algorithm"`
	Cluster    WireCluster     `json:"cluster"`
	Placements []WirePlacement `json:"placements"`
	// Comm is the redistribution time charged on each edge, in the dense
	// (From, To) edge-id order of the request's graph.
	Comm             []float64 `json:"comm"`
	Makespan         float64   `json:"makespan"`
	SchedulingTimeNS int64     `json:"scheduling_time_ns,omitempty"`
}

// WireFromSchedule encodes a schedule; m is the task graph's edge count
// (the length of the dense communication-charge vector).
func WireFromSchedule(s *schedule.Schedule, m int) *WireSchedule {
	w := &WireSchedule{
		Algorithm:        s.Algorithm,
		Cluster:          WireCluster{P: s.Cluster.P, Bandwidth: s.Cluster.Bandwidth, Overlap: s.Cluster.Overlap},
		Placements:       make([]WirePlacement, len(s.Placements)),
		Comm:             make([]float64, m),
		Makespan:         s.Makespan,
		SchedulingTimeNS: s.SchedulingTime.Nanoseconds(),
	}
	for t, pl := range s.Placements {
		w.Placements[t] = WirePlacement{
			Procs:     append([]int(nil), pl.Procs...),
			Start:     pl.Start,
			Finish:    pl.Finish,
			DataReady: pl.DataReady,
			CommTime:  pl.CommTime,
		}
	}
	for i := 0; i < m; i++ {
		w.Comm[i] = s.CommID(i)
	}
	return w
}

// ToSchedule decodes against the task graph the request was made for (the
// decoder side always has it: the client sent the graph, the server parsed
// it). Lengths are validated against the graph so a truncated or mismatched
// payload fails loudly instead of mis-indexing.
func (w *WireSchedule) ToSchedule(tg *model.TaskGraph) (*schedule.Schedule, error) {
	if len(w.Placements) != tg.N() {
		return nil, fmt.Errorf("serve: wire schedule has %d placements for a %d-task graph", len(w.Placements), tg.N())
	}
	if len(w.Comm) != tg.M() {
		return nil, fmt.Errorf("serve: wire schedule has %d comm charges for a %d-edge graph", len(w.Comm), tg.M())
	}
	c := model.Cluster{P: w.Cluster.P, Bandwidth: w.Cluster.Bandwidth, Overlap: w.Cluster.Overlap}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := schedule.NewSchedule(w.Algorithm, c, tg)
	for t, wp := range w.Placements {
		s.Placements[t] = schedule.Placement{
			Procs:     append([]int(nil), wp.Procs...),
			Start:     wp.Start,
			Finish:    wp.Finish,
			DataReady: wp.DataReady,
			CommTime:  wp.CommTime,
		}
	}
	for i, ch := range w.Comm {
		s.SetCommID(i, ch)
	}
	s.Makespan = w.Makespan
	s.SchedulingTime = time.Duration(w.SchedulingTimeNS)
	return s, nil
}

// WireResponse wraps a scheduled result for the wire and for L2 disk
// files: the schedule plus the anytime metadata (truncation flag and the
// certified quality bound, zero for plain full runs).
type WireResponse struct {
	Schema     string       `json:"schema"`
	Schedule   WireSchedule `json:"schedule"`
	Truncated  bool         `json:"truncated,omitempty"`
	LowerBound float64      `json:"lower_bound,omitempty"`
	Ratio      float64      `json:"ratio,omitempty"`
}

// ParseKey decodes a 64-hex-digit fingerprint, the inverse of
// fmt.Sprintf("%x", key[:]).
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, fmt.Errorf("serve: %q is not a %d-hex-digit fingerprint", s, 2*len(k))
	}
	copy(k[:], b)
	return k, nil
}

// HexKey renders the full fingerprint (Key.String shows only a prefix).
func HexKey(k Key) string { return hex.EncodeToString(k[:]) }
