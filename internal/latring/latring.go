// Package latring provides a fixed-size sliding window of request
// latencies with nearest-rank quantile reporting. The scheduling service
// uses it for its Stats p50/p99, and the HTTP client uses it to derive the
// p99-based hedging delay — quantiles over the most recent completions are
// what both a load driver watching a phase change and a tail-latency
// hedger want.
package latring

import (
	"slices"
	"sync"
	"time"
)

// Ring is a sliding window over the last `size` recorded latencies. The
// zero value is not usable; construct with New. All methods are safe for
// concurrent use.
type Ring struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int // total recordings ever; buf index wraps at len(buf)
}

// New returns a ring holding the most recent size samples (at least 1).
func New(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]time.Duration, size)}
}

// Record appends one latency, overwriting the oldest once the window is
// full.
func (r *Ring) Record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%len(r.buf)] = d
	r.n++
	r.mu.Unlock()
}

// Count reports how many samples the window currently holds (saturating at
// the window size).
func (r *Ring) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled()
}

func (r *Ring) filled() int {
	if r.n > len(r.buf) {
		return len(r.buf)
	}
	return r.n
}

// snapshot copies the currently held samples in ascending order.
func (r *Ring) snapshot() []time.Duration {
	r.mu.Lock()
	cp := slices.Clone(r.buf[:r.filled()])
	r.mu.Unlock()
	slices.Sort(cp)
	return cp
}

// Quantile reports the q-th percentile (nearest rank) of lats, or 0 when
// lats is empty; lats itself is left unsorted. The driver-side quantiles of
// the bench tools and the service's window share this one rank rule.
func Quantile(lats []time.Duration, q int) time.Duration {
	cp := slices.Clone(lats)
	slices.Sort(cp)
	return nearestRank(cp, q)
}

// nearestRank returns the sample at index ceil(q/100 * m) - 1 of the sorted
// m samples, clamped to [0, m-1]. Unlike the naive (m-1)*q/100 it never
// under-indexes the tail — with 2 samples the p99 is the larger one, not
// the smaller.
func nearestRank(sorted []time.Duration, q int) time.Duration {
	m := len(sorted)
	if m == 0 {
		return 0
	}
	return sorted[min(max((m*q+99)/100, 1), m)-1]
}

// Quantile reports the q-th percentile (nearest rank) of the window, or 0
// when the window is empty.
func (r *Ring) Quantile(q int) time.Duration {
	return nearestRank(r.snapshot(), q)
}

// Quantiles reports the window's p50 and p99 in one pass (zeros when
// empty). p50 <= p99 always: the rank function is monotone in q.
func (r *Ring) Quantiles() (p50, p99 time.Duration) {
	cp := r.snapshot()
	return nearestRank(cp, 50), nearestRank(cp, 99)
}
