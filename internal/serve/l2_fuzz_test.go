package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"locmps/internal/model"
	"locmps/internal/synth"
)

// FuzzDiskCacheGet writes arbitrary bytes as an L2 entry file and reads it
// back through DiskCache.Get for a fixed request. Get must never panic. A
// hit must be a schedule for the request — its cluster, and Validate
// against its graph — because the service hands hits to callers as if a
// search had produced them. A miss must delete the file, so the next cold
// run rewrites it instead of tripping over it again.
func FuzzDiskCacheGet(f *testing.F) {
	p := synth.DefaultParams()
	p.Tasks, p.CCR, p.Seed = 8, 0.25, 5
	tg, err := synth.Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	req := Request{Graph: tg, Cluster: model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: true}}
	key, err := req.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	alg, err := buildScheduler(req.Options.normalized())
	if err != nil {
		f.Fatal(err)
	}
	s, err := alg.Schedule(req.Graph, req.Cluster)
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	seedCache, err := OpenDiskCache(seedDir, 0)
	if err != nil {
		f.Fatal(err)
	}
	seedCache.Put(key, req, s, false)
	entry, err := os.ReadFile(filepath.Join(seedDir, HexKey(key)+l2Suffix))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, ok := seedCache.Get(key, req); !ok {
		f.Fatal("a freshly written entry is not served")
	}
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(bytes.Replace(entry, []byte(WireVersion), []byte("locmps/wire/v999"), 1))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, HexKey(key)+l2Suffix)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		dc, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, ok := dc.Get(key, req)
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("miss left the entry file behind (stat: %v)", err)
			}
			return
		}
		if got.Cluster != req.Cluster {
			t.Fatalf("hit for cluster %+v, request has %+v", got.Cluster, req.Cluster)
		}
		if err := got.Validate(req.Graph); err != nil {
			t.Fatalf("hit does not validate against the request graph: %v", err)
		}
	})
}
