// Command ftbench is the repository benchmark. It drives protected FFTs
// through the public ftfft API on four workloads (local, faulted, serve,
// distributed), checks every operation's output against an independent
// reference, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 a separate traced run records spans around the calls
// into every layer and prints the per-layer metrics; it also writes the span
// file and a per-layer summary under --trace-dir.
//
// Usage (from the repository root):
//
//	bash ftbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// procs is the load shape's CPU budget: the reference box has two cores and
// every workload issues load from at most two goroutines.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its span file to")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "run"), "directory for the run's unix sockets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || fs.NArg() != 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "ftbench: need --workload {%s} --seed n --seconds s --trace {0|1}\n", workloadNames())
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(procs)

	res, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}
	return 0
}

// execute runs one invocation: the end-to-end run, or the traced run.
func execute(o options, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, workDir: o.workDir}
	if !o.trace {
		st, err := workloads[o.workload](cfg)
		if err != nil {
			return nil, err
		}
		return endToEnd(st), nil
	}
	return traced(o, cfg, stderr)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures failureCounts
	notes    []string // printed before the failure line, not part of the result
}

func newResult(c failureCounts) *result {
	return &result{
		Correct:   c.failed() == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed(),
		Metrics:   map[string]metric{},
		failures:  c,
	}
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(s string) { r.notes = append(r.notes, s) }

// print writes one "name value unit" line per metric, the notes, the
// failure breakdown, and the result JSON as the last line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-28s %-16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	c := r.failures
	fmt.Fprintf(w, "failures: error=%d uncorrectable=%d out_of_tolerance=%d of attempted=%d (worst relative L2 error %.3g)\n",
		c.errs, c.uncorrectable, c.outOfTol, c.attempted, c.worst)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
