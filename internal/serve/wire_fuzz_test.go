package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzMaxSamples bounds N*P for the fingerprint round trip below: the
// fingerprint and the re-encode each sample every task's curve at 1..P, so
// an accepted body declaring a huge cluster would stall the fuzzer on
// sampling work rather than exercise the decoder.
const fuzzMaxSamples = 1 << 16

// FuzzWireDecode feeds arbitrary bytes through the decode path of
// POST /v1/schedule: JSON into a WireRequest, then ToRequest. Decoding must
// never panic, whatever the body. A body that decodes must fingerprint,
// re-encode through WireFromRequest and decode again to the same
// fingerprint — the property cross-node cache routing relies on.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"name":"a","et":[4,2.5,2]},{"et":[3,2,1.5]}],` +
		`"edges":[{"from":0,"to":1,"volume":1e6}],"cluster":{"p":3,"bandwidth":1.25e7,"overlap":true},` +
		`"options":{"algorithm":"LoC-MPS","top_fraction":0.5,"max_iterations":3},"budget":{"deadline_ns":1000}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v1","tasks":[{"et":[1]}],"cluster":{"p":1,"bandwidth":1}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[2,1]},{"et":[2,1]}],"cluster":{"p":2,"bandwidth":1},` +
		`"portfolio":["LoC-MPS","CPR"]}`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[2,1]}],"cluster":{"p":2,"bandwidth":1},` +
		`"portfolio":["LoC-MPS"],"options":{"dual":true}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[1]},{"et":[1]}],"edges":[{"from":0,"to":1},{"from":1,"to":0}],` +
		`"cluster":{"p":1,"bandwidth":1}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v9","tasks":[]}`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[-1]}],"cluster":{"p":0}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr WireRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
			return
		}
		req, budget, err := wr.ToRequest()
		if err != nil {
			return
		}
		if req.Cluster.P > fuzzMaxSamples/req.Graph.N() {
			return
		}
		key, err := req.Fingerprint()
		if err != nil {
			t.Fatalf("decoded request does not fingerprint: %v", err)
		}
		w2, err := WireFromRequest(req, budget)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		data, err := json.Marshal(w2)
		if err != nil {
			t.Fatalf("marshal re-encoded request: %v", err)
		}
		var back WireRequest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal re-encoded request: %v", err)
		}
		req2, _, err := back.ToRequest()
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		key2, err := req2.Fingerprint()
		if err != nil {
			t.Fatalf("re-decoded request does not fingerprint: %v", err)
		}
		if key != key2 {
			t.Fatalf("fingerprint changed across the wire round trip: %s vs %s", HexKey(key), HexKey(key2))
		}
	})
}
