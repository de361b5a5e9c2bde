package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile is the q-quantile of xs, interpolating between closest ranks;
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean of positive values; 0 for an empty sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is the process-wide state the proc layer metrics difference
// across a measurement window.
type procSample struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func sampleProc() procSample {
	var ps procSample
	runtime.ReadMemStats(&ps.mem)
	ps.cpu = cpuNow()
	ps.at = time.Now()
	return ps
}

// cpuNow is the CPU time, user plus system, that all of the process's
// threads have used, read from Linux's CLOCK_PROCESS_CPUTIME_ID to the
// nanosecond (getrusage rounds to microseconds). A guest kernel with
// paravirtual steal accounting leaves out the time the hypervisor gave to
// other guests, so on a shared host this clock moves with the work done
// while the wall clock also moves with the neighbours' load.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stamp is a reading of both clocks an operation is timed on.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuNow()} }

// opTimes are the wall and CPU seconds of each operation in a window.
// With one operation in flight at a time, the process's CPU time across
// an operation is that operation's CPU cost.
type opTimes struct {
	wall, cpu []float64
}

// add records an operation that ran from a to b and returns its wall
// seconds.
func (ot *opTimes) add(a, b stamp) float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	ot.wall = append(ot.wall, wall)
	ot.cpu = append(ot.cpu, (b.cpu - a.cpu).Seconds())
	return wall
}

// timings reports a window [a, b] in which done operations completed and
// ot timed the ones of interest. The end-to-end figures are on the CPU
// clock: throughput per CPU-second of the whole process, and the median
// and tail (the q-quantile) of the per-operation CPU time. The wall-clock
// figures, which a shared host's load moves as much as the program does,
// are per-layer metrics. trace.* repeats the CPU figures so that a traced
// run, set beside an untraced one, gives the tracing overhead.
func timings(out *outcome, done int, ot opTimes, q float64, a, b procSample) {
	procDelta(a, b, done, out.e2e, out.layer)
	out.e2e["ops_per_cpu_s"] = ratio(float64(done), (b.cpu - a.cpu).Seconds())
	out.e2e["op_cpu_p50_s"] = median(ot.cpu)
	out.e2e["op_cpu_tail_s"] = quantile(ot.cpu, q)
	out.layer["wall.ops_per_s"] = ratio(float64(done), b.at.Sub(a.at).Seconds())
	out.layer["wall.op_p50_s"] = median(ot.wall)
	out.layer["wall.op_tail_s"] = quantile(ot.wall, q)
	out.layer["trace.ops_per_cpu_s"] = out.e2e["ops_per_cpu_s"]
	out.layer["trace.op_cpu_p50_s"] = out.e2e["op_cpu_p50_s"]
}

// setupTimes runs a workload's set-up setupReps times and reports the
// median CPU seconds as setup_s and the median wall seconds in the human
// report. Each call of build replaces the previous set-up, so the caller
// is left with the last.
func setupTimes(out *outcome, build func() error) error {
	var cpu, wall []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t1 := now()
		cpu = append(cpu, (t1.cpu - t0.cpu).Seconds())
		wall = append(wall, t1.wall.Sub(t0.wall).Seconds())
	}
	out.e2e["setup_s"] = median(cpu)
	out.setupWall = median(wall)
	return nil
}

// procDelta summarizes a window [a, b] of ops operations into the
// alloc_bytes_per_op end-to-end metric and the proc layer metrics.
func procDelta(a, b procSample, ops int, e2e, layer map[string]float64) {
	n := float64(max(ops, 1))
	wall := b.at.Sub(a.at).Seconds()
	e2e["alloc_bytes_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / n
	layer["proc.cpu_per_wall"] = ratio((b.cpu - a.cpu).Seconds(), wall)
	layer["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	layer["proc.gc_pause_s"] = time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs).Seconds()
	layer["proc.mallocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
}

// setupReps is how many times each workload builds its set-up; setup_s
// is the median.
const setupReps = 5

// host is the machine shape stamped on every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func stampHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}
