package latring

import (
	"sync"
	"testing"
	"time"
)

// TestWindowSizeOne: the degenerate one-slot window always reports the most
// recent sample for every quantile.
func TestWindowSizeOne(t *testing.T) {
	r := New(1)
	if p50, p99 := r.Quantiles(); p50 != 0 || p99 != 0 {
		t.Fatalf("empty ring: got p50=%v p99=%v, want zeros", p50, p99)
	}
	r.Record(5 * time.Millisecond)
	if p50, p99 := r.Quantiles(); p50 != 5*time.Millisecond || p99 != 5*time.Millisecond {
		t.Fatalf("one sample: got p50=%v p99=%v, want 5ms both", p50, p99)
	}
	r.Record(7 * time.Millisecond) // overwrites
	if got := r.Quantile(99); got != 7*time.Millisecond {
		t.Fatalf("after overwrite: p99=%v, want 7ms", got)
	}
	if n := r.Count(); n != 1 {
		t.Fatalf("Count=%d, want 1", n)
	}
}

// TestWindowSizeTwo: with two samples the p50 is the lower one
// (nearest-rank lower median) and the p99 must be the LARGER one — the
// naive (m-1)*q/100 index returned the smaller sample for both.
func TestWindowSizeTwo(t *testing.T) {
	r := New(2)
	r.Record(1 * time.Millisecond)
	r.Record(100 * time.Millisecond)
	p50, p99 := r.Quantiles()
	if p50 != 1*time.Millisecond {
		t.Fatalf("p50=%v, want 1ms (lower median)", p50)
	}
	if p99 != 100*time.Millisecond {
		t.Fatalf("p99=%v, want 100ms (the tail sample, not the floor)", p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}

// TestExactlyFull fills the window exactly and checks the nearest-rank
// positions against a hand computation.
func TestExactlyFull(t *testing.T) {
	const size = 100
	r := New(size)
	for i := 1; i <= size; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if n := r.Count(); n != size {
		t.Fatalf("Count=%d, want %d", n, size)
	}
	p50, p99 := r.Quantiles()
	// nearest rank over 1..100: p50 = 50th value, p99 = 99th value.
	if p50 != 50*time.Microsecond {
		t.Fatalf("p50=%v, want 50µs", p50)
	}
	if p99 != 99*time.Microsecond {
		t.Fatalf("p99=%v, want 99µs", p99)
	}
	if got := r.Quantile(100); got != 100*time.Microsecond {
		t.Fatalf("p100=%v, want the maximum 100µs", got)
	}
	if got := r.Quantile(1); got != 1*time.Microsecond {
		t.Fatalf("p1=%v, want the minimum 1µs", got)
	}
}

// TestWrapAround overfills the window and checks that quantiles reflect
// only the most recent `size` samples, with no index panic at the seam.
func TestWrapAround(t *testing.T) {
	const size = 8
	r := New(size)
	// 3*size recordings: the survivors are the last 8, values 17..24.
	for i := 1; i <= 3*size; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if n := r.Count(); n != size {
		t.Fatalf("Count=%d, want %d", n, size)
	}
	p50, p99 := r.Quantiles()
	if p50 < 17*time.Millisecond || p99 > 24*time.Millisecond {
		t.Fatalf("quantiles [%v, %v] outside surviving window [17ms, 24ms]", p50, p99)
	}
	if p99 != 24*time.Millisecond {
		t.Fatalf("p99=%v, want the window max 24ms", p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}

// TestMonotoneAcrossSizes sweeps every fill level of several window sizes:
// p50 <= p99 must hold at every point and nothing may panic.
func TestMonotoneAcrossSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 16} {
		r := New(size)
		for i := 0; i < 3*size+1; i++ {
			r.Record(time.Duration((i*7919)%101) * time.Microsecond)
			p50, p99 := r.Quantiles()
			if p50 > p99 {
				t.Fatalf("size=%d after %d records: p50 %v > p99 %v", size, i+1, p50, p99)
			}
		}
	}
}

// TestZeroSizeClamped: New(0) must still be usable.
func TestZeroSizeClamped(t *testing.T) {
	r := New(0)
	r.Record(time.Second)
	if got := r.Quantile(50); got != time.Second {
		t.Fatalf("clamped ring: p50=%v, want 1s", got)
	}
}

// TestConcurrentRecord exercises the lock under the race detector.
func TestConcurrentRecord(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(time.Duration(g*1000 + i))
				r.Quantiles()
			}
		}(g)
	}
	wg.Wait()
	if n := r.Count(); n != 64 {
		t.Fatalf("Count=%d, want full window 64", n)
	}
}
