// Command perfbench is the repository's benchmark. One invocation runs one
// workload through the module's public entry points, checks the outputs,
// and prints a human-readable report followed by one JSON result line:
//
//	perfbench --workload cold-search --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - cold-search: one caller schedules a seeded suite of distinct
//     synthetic DAGs with a fresh LoC-MPS scheduler per call.
//   - serve-mixed: one closed-loop HTTP client against an in-process
//     scheduling node with a disk L2; nine requests in ten hit a warmed
//     hot set, the tenth is a fresh instance.
//   - stream-churn: a bursty Poisson stream of DAG jobs with injected
//     task failures and a shrink/regrow, stepped until it drains. It is
//     not in BENCHMARK.json while its end state fails the audit on some
//     seeds (see stream.go).
//
// With --trace 0 the JSON line carries the end-to-end metrics (the same
// names on every workload, see catalog.go); with --trace 1 it carries the
// per-layer metrics, measured from spans this package records around its
// calls into each layer. Nothing inside the module's internal packages is
// instrumented. run.py builds this package and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workdir holds the run's scratch files (the serve workload's disk
	// caches); out, when set, receives the result file with host stamp
	// and spans.
	workdir, out string
}

// outcome is what a workload reports back to run.
type outcome struct {
	attempted, failed int
	// problems lists correctness failures; any entry makes the run
	// incorrect and the command exit non-zero.
	problems []string
	// e2e and layer are keyed by catalog names; named holds the
	// workload's own end-to-end metric names for the human report.
	e2e, layer map[string]float64
	named      []namedValue
	// setupWall is the median wall seconds of a set-up, for the report.
	setupWall float64
	spans     []span
}

type namedValue struct {
	name, unit string
	value      float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(env *env) (*outcome, error){
	"cold-search":  runCold,
	"serve-mixed":  runServe,
	"stream-churn": runStream,
}

// env is what every workload receives: its configuration and the tracer
// (nil on untraced runs, which then record nothing).
type env struct {
	cfg config
	tr  *tracer
}

// measureFor is the measurement window.
func (e *env) measureFor() time.Duration {
	return time.Duration(e.cfg.seconds * float64(time.Second))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: cold-search, serve-mixed or stream-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", "", "scratch directory (default: a fresh directory under the current one)")
	fs.StringVar(&cfg.out, "out", "", "directory for the result file with host stamp and spans (default: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (cold-search, serve-mixed, stream-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp(".", ".perfbench-work-")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	}

	e := &env{cfg: cfg}
	if cfg.trace {
		e.tr = newTracer()
	}
	h := stampHost()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)

	out, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if e.tr != nil {
		out.spans = e.tr.snapshot()
	}
	res := assemble(cfg, out)
	report(stdout, cfg, out, res)
	if cfg.out != "" {
		if err := writeResultFile(cfg, h, out, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble selects the catalog's metric set for the run kind. Every
// catalog name is present; a layer the workload does not exercise reports
// zero work.
func assemble(cfg config, out *outcome) result {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	set, vals := endToEnd, out.e2e
	if cfg.trace {
		set, vals = perLayer, out.layer
	}
	for _, d := range set {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// report prints the workload's own end-to-end names and, on a traced run,
// the layer metrics the catalog does not carry.
func report(w io.Writer, cfg config, out *outcome, res result) {
	for _, nv := range out.named {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", nv.name, nv.value, nv.unit)
	}
	if cfg.trace {
		var extra []string
		for name := range out.layer {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			fmt.Fprintf(w, "  %-28s %14.6g\n", name, out.layer[name])
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range out.problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
}

// writeResultFile records the run with its host stamp (and spans, on a
// traced run) as <out>/<workload>-seed<n>-trace<0|1>.json.
func writeResultFile(cfg config, h host, out *outcome, res result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	rec := struct {
		Host     host     `json:"host"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Trace    int      `json:"trace"`
		Result   result   `json:"result"`
		Problems []string `json:"problems,omitempty"`
		Spans    []span   `json:"spans,omitempty"`
	}{h, cfg.workload, cfg.seed, cfg.seconds, trace, res, out.problems, out.spans}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644)
}
