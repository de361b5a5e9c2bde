// Package benchfile owns the format of the BENCH_*.json files the bench
// tools write (cmd/benchjson, cmd/loadgen, cmd/streamgen): the shared
// note/cpus/baseline/current envelope, its load-and-update cycle, and the
// declarative gate tables that `benchjson -gate` applies to the files it
// does not re-measure.
//
// Every file keeps two snapshots of its cases. "baseline" is written once
// and preserved by every rerun; "current" is refreshed each run. A case
// added after the baseline was recorded is backfilled into it on its first
// run. Delete a file to re-baseline all of its cases.
package benchfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// File is the envelope every bench file shares. A tool embeds it in its
// own file type, so the shared keys come first, in this order, followed by
// whatever the tool derives.
type File[R any] struct {
	Note string `json:"note"`
	// CPUs is the logical core count of the host that recorded "current".
	CPUs     int          `json:"cpus"`
	Baseline map[string]R `json:"baseline"`
	Current  map[string]R `json:"current"`
}

// Load decodes the bench file at path into v. A missing file is not an
// error: Load reports false and leaves v untouched.
func Load(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

// Save writes v to path as indented JSON with a trailing newline.
func Save(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Adopt keeps prev's note and baseline, so a rerun refreshes only current.
func (f *File[R]) Adopt(prev File[R]) {
	if len(prev.Baseline) == 0 {
		return
	}
	f.Baseline = prev.Baseline
	if prev.Note != "" {
		f.Note = prev.Note
	}
}

// Backfill copies every current case the baseline lacks into it (the whole
// snapshot when there is no baseline yet), then warns on stderr about each
// stale case; hint tells the reader how to re-baseline one. It returns the
// stale case names.
func (f *File[R]) Backfill(hint string) []string {
	fresh := map[string]bool{}
	initial := len(f.Baseline) == 0
	if initial {
		f.Baseline = make(map[string]R, len(f.Current))
		fmt.Println("no existing baseline: current run recorded as baseline")
	}
	for _, name := range sortedKeys(f.Current) {
		if _, ok := f.Baseline[name]; ok {
			continue
		}
		f.Baseline[name] = f.Current[name]
		fresh[name] = true
		if !initial {
			fmt.Printf("%-34s new case: current run backfilled into baseline\n", name)
		}
	}
	stale := f.Stale(fresh)
	warnStale(stale, hint)
	return stale
}

// Stale lists, sorted, the cases whose baseline and current entries encode
// to the same bytes — the fingerprint of a baseline that was backfilled and
// never re-measured — except those in fresh, which this very run
// backfilled and are equal by construction.
func (f *File[R]) Stale(fresh map[string]bool) []string {
	var stale []string
	for _, name := range sortedKeys(f.Current) {
		base, ok := f.Baseline[name]
		if !ok || fresh[name] {
			continue
		}
		bj, err1 := json.Marshal(base)
		cj, err2 := json.Marshal(f.Current[name])
		if err1 == nil && err2 == nil && bytes.Equal(bj, cj) {
			stale = append(stale, name)
		}
	}
	return stale
}

func warnStale(names []string, hint string) {
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%s: warning: %s baseline == current byte-for-byte (stale backfill); %s\n",
			filepath.Base(os.Args[0]), name, hint)
	}
}

func sortedKeys[R any](m map[string]R) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
