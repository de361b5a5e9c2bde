package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/speedup"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"regenerate testdata/fingerprints.json from the in-code fixture requests")

// wireGraph builds a small deterministic diamond graph with hand-written
// table profiles — no randomness, so its fingerprint is a constant.
func wireGraph(t *testing.T) *model.TaskGraph {
	t.Helper()
	prof := func(times ...float64) speedup.Profile {
		p, err := speedup.NewTable(times)
		if err != nil {
			t.Fatalf("NewTable: %v", err)
		}
		return p
	}
	tasks := []model.Task{
		{Name: "src", Profile: prof(8, 4.5, 3.25, 2.75)},
		{Name: "left", Profile: prof(6, 3.5, 2.5, 2.25)},
		{Name: "right", Profile: prof(10, 5.25, 4, 3.5)},
		{Name: "sink", Profile: prof(4, 2.25, 1.75, 1.5)},
	}
	edges := []model.Edge{
		{From: 0, To: 1, Volume: 1.5e6},
		{From: 0, To: 2, Volume: 2.5e6},
		{From: 1, To: 3, Volume: 0.5e6},
		{From: 2, To: 3, Volume: 3e6},
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		t.Fatalf("NewTaskGraph: %v", err)
	}
	return tg
}

// fixtureRequests are the canonical fingerprint test vectors: distinct
// algorithms, knob overrides and iteration budgets over the same instance,
// plus an edge-less graph.
func fixtureRequests(t *testing.T) map[string]Request {
	t.Helper()
	tg := wireGraph(t)
	c := model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: true}
	twoTasks, err := model.NewTaskGraph([]model.Task{
		{Name: "a", Profile: speedup.Linear{T1: 5}},
		{Name: "b", Profile: speedup.Linear{T1: 3}},
	}, nil)
	if err != nil {
		t.Fatalf("NewTaskGraph: %v", err)
	}
	return map[string]Request{
		"locmps-defaults": {Graph: tg, Cluster: c},
		"locmps-knobs": {Graph: tg, Cluster: c, Options: Options{
			Algorithm: "LoC-MPS", LookAheadDepth: 5, TopFraction: 0.5, BlockBytes: 4096,
		}},
		"locmps-budgeted": {Graph: tg, Cluster: c, Options: Options{MaxIterations: 8}},
		"cpr-baseline":    {Graph: tg, Cluster: c, Options: Options{Algorithm: "CPR"}},
		"no-edges":        {Graph: twoTasks, Cluster: model.Cluster{P: 2, Bandwidth: 1e6}},
		"portfolio":       {Graph: tg, Cluster: c, Portfolio: []string{"LoC-MPS", "CPR", "M-HEFT"}},
	}
}

// fingerprintFixtureFile is the on-disk layout of the golden key fixtures.
type fingerprintFixtureFile struct {
	Note               string             `json:"note"`
	FingerprintVersion string             `json:"fingerprint_version"`
	WireVersion        string             `json:"wire_version"`
	Cases              map[string]fixture `json:"cases"`
}

type fixture struct {
	Request *WireRequest `json:"request"`
	Key     string       `json:"key"`
}

const fixturePath = "testdata/fingerprints.json"

// TestGoldenFingerprints pins the fingerprint scheme: the committed wire
// requests must hash to the committed SHA-256 keys on every version of the
// code and on every node. Cache keys are routing and storage addresses
// across processes and machines, so a drift here without a
// FingerprintVersion bump silently partitions the distributed cache —
// hence the loud failure. Regenerate (after an intentional bump) with:
//
//	go test ./internal/serve -run TestGoldenFingerprints -update-fingerprints
func TestGoldenFingerprints(t *testing.T) {
	reqs := fixtureRequests(t)

	if *updateFingerprints {
		out := fingerprintFixtureFile{
			Note:               "Golden fingerprint vectors: each wire request must hash to its recorded SHA-256 key. A mismatch means the fingerprint scheme drifted; that requires a FingerprintVersion bump AND regeneration with -update-fingerprints, because every cache tier and every node keys by these digests.",
			FingerprintVersion: FingerprintVersion,
			WireVersion:        WireVersion,
			Cases:              map[string]fixture{},
		}
		for name, req := range reqs {
			w, err := WireFromRequest(req, core.Budget{})
			if err != nil {
				t.Fatalf("%s: WireFromRequest: %v", name, err)
			}
			key, err := req.Fingerprint()
			if err != nil {
				t.Fatalf("%s: Fingerprint: %v", name, err)
			}
			out.Cases[name] = fixture{Request: w, Key: HexKey(key)}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cases", fixturePath, len(out.Cases))
		return
	}

	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with -update-fingerprints)", fixturePath, err)
	}
	var f fingerprintFixtureFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing %s: %v", fixturePath, err)
	}
	if f.FingerprintVersion != FingerprintVersion {
		t.Fatalf("fixture fingerprint version %q != code %q: the scheme was bumped — regenerate the fixtures with -update-fingerprints",
			f.FingerprintVersion, FingerprintVersion)
	}
	if f.WireVersion != WireVersion {
		t.Fatalf("fixture wire version %q != code %q: regenerate the fixtures with -update-fingerprints",
			f.WireVersion, WireVersion)
	}
	if len(f.Cases) == 0 {
		t.Fatalf("%s has no cases", fixturePath)
	}
	for name, fx := range f.Cases {
		req, _, err := fx.Request.ToRequest()
		if err != nil {
			t.Errorf("%s: decoding fixture request: %v", name, err)
			continue
		}
		key, err := req.Fingerprint()
		if err != nil {
			t.Errorf("%s: Fingerprint: %v", name, err)
			continue
		}
		if got := HexKey(key); got != fx.Key {
			t.Errorf("%s: FINGERPRINT DRIFT without a version bump:\n  committed %s\n  computed  %s\nCache keys address storage and routing across nodes; changing them silently partitions the cache. Bump serve.FingerprintVersion and regenerate with -update-fingerprints.",
				name, fx.Key, got)
		}
	}
	// The in-code builders must still agree with the committed vectors:
	// otherwise -update-fingerprints would rewrite the file with different
	// keys while the committed ones still pass, hiding a builder drift.
	for name, req := range reqs {
		fx, ok := f.Cases[name]
		if !ok {
			t.Errorf("case %q missing from %s: regenerate with -update-fingerprints", name, fixturePath)
			continue
		}
		key, err := req.Fingerprint()
		if err != nil {
			t.Errorf("%s: Fingerprint: %v", name, err)
			continue
		}
		if got := HexKey(key); got != fx.Key {
			t.Errorf("%s: in-code fixture request fingerprints to %s, committed key is %s", name, got, fx.Key)
		}
	}
}

// TestWireRequestRoundTrip: encoding a request for the wire and decoding it
// back must preserve the fingerprint — the property that makes
// fingerprint-routed caching across nodes coherent — including for
// parametric (non-table) profiles, which cross the wire as sampled curves.
func TestWireRequestRoundTrip(t *testing.T) {
	p := func(t1, a, sigma float64) speedup.Profile {
		d, err := speedup.NewDowney(t1, a, sigma)
		if err != nil {
			panic(err)
		}
		return d
	}
	tg, err := model.NewTaskGraph([]model.Task{
		{Name: "d0", Profile: p(12, 6, 0.5)},
		{Name: "d1", Profile: p(7, 3, 1.5)},
		{Name: "d2", Profile: p(9, 8, 0)},
	}, []model.Edge{{From: 0, To: 1, Volume: 2e6}, {From: 0, To: 2, Volume: 1e6}, {From: 1, To: 2, Volume: 5e5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{},
		{Algorithm: "LoC-MPS-NoBF", LookAheadDepth: 3},
		{Algorithm: "M-HEFT"},
		{MaxIterations: 4},
	} {
		req := Request{Graph: tg, Cluster: model.Cluster{P: 6, Bandwidth: 2e6, Overlap: true}, Options: opt}
		w, err := WireFromRequest(req, core.Budget{})
		if err != nil {
			t.Fatalf("WireFromRequest: %v", err)
		}
		// Through JSON, as on the real wire.
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var w2 WireRequest
		if err := json.Unmarshal(data, &w2); err != nil {
			t.Fatal(err)
		}
		got, b, err := w2.ToRequest()
		if err != nil {
			t.Fatalf("ToRequest: %v", err)
		}
		if b != (core.Budget{}) {
			t.Fatalf("budget materialized from nothing: %+v", b)
		}
		k1, err := req.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		k2, err := got.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("options %+v: fingerprint changed across the wire: %s != %s", opt, k1, k2)
		}
	}
}

// TestWireBudgetRoundTrip: iteration budgets cross verbatim; wall-clock
// deadlines cross as a relative duration and re-anchor on the receiver's
// clock.
func TestWireBudgetRoundTrip(t *testing.T) {
	tg := wireGraph(t)
	req := Request{Graph: tg, Cluster: model.Cluster{P: 4, Bandwidth: 1e6}}
	deadline := time.Now().Add(250 * time.Millisecond)
	w, err := WireFromRequest(req, core.Budget{MaxIterations: 7, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if w.Budget == nil || w.Budget.MaxIterations != 7 {
		t.Fatalf("budget not encoded: %+v", w.Budget)
	}
	if w.Budget.DeadlineNS <= 0 || w.Budget.DeadlineNS > int64(250*time.Millisecond) {
		t.Fatalf("relative deadline %dns outside (0, 250ms]", w.Budget.DeadlineNS)
	}
	_, b, err := w.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxIterations != 7 {
		t.Fatalf("MaxIterations %d != 7", b.MaxIterations)
	}
	until := time.Until(b.Deadline)
	if until <= 0 || until > 250*time.Millisecond {
		t.Fatalf("re-anchored deadline %v from now, want within (0, 250ms]", until)
	}

	// An already-expired deadline still crosses as a (minimal) deadline so
	// the receiver truncates immediately rather than running unbounded.
	w, err = WireFromRequest(req, core.Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if w.Budget == nil || w.Budget.DeadlineNS != 1 {
		t.Fatalf("expired deadline encoded as %+v, want DeadlineNS=1", w.Budget)
	}
}

// TestWireScheduleRoundTrip: a schedule pushed through JSON and decoded
// against the same graph must be bit-identical (SchedulingTime included —
// it crosses as integer nanoseconds).
func TestWireScheduleRoundTrip(t *testing.T) {
	tg := wireGraph(t)
	c := model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: true}
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	orig, err := svc.Schedule(Request{Graph: tg, Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	w := WireFromSchedule(orig, tg.M())
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 WireSchedule
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatal(err)
	}
	got, err := w2.ToSchedule(tg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := equalSchedules(orig, got, tg.M()); diff != "" {
		t.Fatalf("schedule changed across the wire: %s", diff)
	}
	if orig.SchedulingTime != got.SchedulingTime {
		t.Fatalf("SchedulingTime %v != %v", orig.SchedulingTime, got.SchedulingTime)
	}
	// Canonical byte-for-byte: identical wire encodings.
	reData, err := json.Marshal(WireFromSchedule(got, tg.M()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, reData) {
		t.Fatalf("re-encoded schedule differs byte-for-byte:\n%s\nvs\n%s", data, reData)
	}
}

// TestWireScheduleLengthValidation: mismatched payloads fail loudly.
func TestWireScheduleLengthValidation(t *testing.T) {
	tg := wireGraph(t)
	c := model.Cluster{P: 4, Bandwidth: 12.5e6}
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	s, err := svc.Schedule(Request{Graph: tg, Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	w := WireFromSchedule(s, tg.M())
	w.Placements = w.Placements[:2]
	if _, err := w.ToSchedule(tg); err == nil {
		t.Fatal("truncated placements decoded without error")
	}
	w = WireFromSchedule(s, tg.M())
	w.Comm = w.Comm[:1]
	if _, err := w.ToSchedule(tg); err == nil {
		t.Fatal("truncated comm vector decoded without error")
	}
}

// TestWireVersionRejected: a node must refuse schemas it does not speak.
func TestWireVersionRejected(t *testing.T) {
	tg := wireGraph(t)
	w, err := WireFromRequest(Request{Graph: tg, Cluster: model.Cluster{P: 4, Bandwidth: 1e6}}, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	w.Schema = "locmps/wire/v999"
	if _, _, err := w.ToRequest(); err == nil {
		t.Fatal("unknown wire schema accepted")
	}
}

// TestWireClusterSizeCap: P = MaxWireProcs decodes, one more is rejected
// before any per-processor work is done.
func TestWireClusterSizeCap(t *testing.T) {
	for _, tc := range []struct {
		p  int
		ok bool
	}{{MaxWireProcs, true}, {MaxWireProcs + 1, false}} {
		w := WireRequest{
			Schema:  WireVersion,
			Tasks:   []WireTask{{ET: []float64{4, 2.5, 2}}},
			Cluster: WireCluster{P: tc.p, Bandwidth: 1e6},
		}
		_, _, err := w.ToRequest()
		if tc.ok && err != nil {
			t.Errorf("P=%d rejected: %v", tc.p, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("P=%d accepted above the cap", tc.p)
		}
	}
}

// TestWireV1StillAccepted: wire/v2 only added the optional portfolio field,
// so payloads from v1 senders must keep decoding — a rolling fleet upgrade
// cannot require both sides to flip at once.
func TestWireV1StillAccepted(t *testing.T) {
	tg := wireGraph(t)
	req := Request{Graph: tg, Cluster: model.Cluster{P: 4, Bandwidth: 1e6}}
	w, err := WireFromRequest(req, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	w.Schema = "locmps/wire/v1"
	got, _, err := w.ToRequest()
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	k1, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("v1-decoded request fingerprints differently: %s != %s", k1, k2)
	}
}

// TestPortfolioFingerprint: the engine list is part of the request's
// identity — its order included (it is the tie-break) — portfolio and
// single-engine requests never collide, and invalid lists fail validation.
func TestPortfolioFingerprint(t *testing.T) {
	tg := wireGraph(t)
	c := model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: true}
	key := func(r Request) Key {
		t.Helper()
		k, err := r.Fingerprint()
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		return k
	}
	ab := key(Request{Graph: tg, Cluster: c, Portfolio: []string{"CPR", "CPA"}})
	ba := key(Request{Graph: tg, Cluster: c, Portfolio: []string{"CPA", "CPR"}})
	if ab == ba {
		t.Fatal("permuted portfolio lists share a fingerprint; the order is the tie-break and must be keyed")
	}
	single := key(Request{Graph: tg, Cluster: c})
	one := key(Request{Graph: tg, Cluster: c, Portfolio: []string{"LoC-MPS"}})
	if single == one {
		t.Fatal("a one-engine portfolio collides with the plain single-engine request")
	}
	if _, err := (Request{Graph: tg, Cluster: c, Portfolio: []string{"NOPE"}}).Fingerprint(); err == nil {
		t.Fatal("unknown portfolio engine accepted")
	}
	if _, err := (Request{Graph: tg, Cluster: c, Portfolio: []string{"CPR", "CPR"}}).Fingerprint(); err == nil {
		t.Fatal("duplicate portfolio engine accepted")
	}
	if _, err := (Request{Graph: tg, Cluster: c,
		Portfolio: []string{"CPR"}, Options: Options{Algorithm: "CPA"}}).Fingerprint(); err == nil {
		t.Fatal("portfolio request with options accepted")
	}
	// StateKey is instance-only: portfolio and single requests share warm
	// state for the same (graph, cluster).
	sk1, err := (Request{Graph: tg, Cluster: c}).StateKey()
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := (Request{Graph: tg, Cluster: c, Portfolio: []string{"CPR", "CPA"}}).StateKey()
	if err != nil {
		t.Fatal(err)
	}
	if sk1 != sk2 {
		t.Fatal("StateKey depends on the portfolio list; it must be instance-only")
	}
}

// TestParseKey round-trips fingerprints through their hex form.
func TestParseKey(t *testing.T) {
	tg := wireGraph(t)
	k, err := (Request{Graph: tg, Cluster: model.Cluster{P: 4, Bandwidth: 1e6}}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseKey(HexKey(k))
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatal("ParseKey(HexKey(k)) != k")
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("garbage key parsed")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("short key parsed")
	}
}
