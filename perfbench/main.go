// Command perfbench is the repository's benchmark. It drives the program
// only through its public functions and the tileserve binary, times the
// calls into each layer from outside, and checks every output it times.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload figures|plan-serve|stencil-run|all \
//	     --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separate traced run, whose spans are written under the work directory.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A metric as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off (BENCHMARK.json names the same set).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
}

// perLayer lists the per-layer metrics every workload reports with tracing
// on. A layer that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"simnet.activities", "count"},
	{"simnet.run_s", "s"},
	{"simnet.activities_per_s", "1/s"},
	{"sim.build_s", "s"},
	{"sim.des_share", "ratio"},
	{"sim.cache_hits", "count"},
	{"sim.cache_misses", "count"},
	{"sim.cache_evals", "count"},
	{"sim.cache_coalesced", "count"},
	{"sim.cache_evictions", "count"},
	{"sim.cache_hit_ratio", "ratio"},
	{"estimate.queries", "count"},
	{"estimate.probes_per_query", "count"},
	{"estimate.certified_frac", "ratio"},
	{"estimate.self_s", "s"},
	{"estimate.probe_s", "s"},
	{"estimate.exact_s", "s"},
	{"experiments.pool_speedup", "ratio"},
	{"planapi.decode_us", "us"},
	{"tileserve.admitted", "count"},
	{"tileserve.shed", "count"},
	{"tileserve.coalesced", "count"},
	{"mp.msgs", "count"},
	{"mp.bytes", "bytes"},
	{"mp.wait_s", "s"},
	{"mp.send_s", "s"},
	{"mp.barrier_s", "s"},
	{"runner.rank_elapsed_s", "s"},
	{"runner.self_s", "s"},
	{"runner.tiles", "count"},
	{"runner.ckpt_count", "count"},
	{"runner.ckpt_bytes", "bytes"},
	{"stencil.seq_s", "s"},
	{"stencil.ns_per_point", "ns"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.allocs", "count"},
	{"trace.untraced_s", "s"},
	{"trace.traced_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// env is what every workload receives.
type env struct {
	seed      int64
	seconds   time.Duration
	tileserve string // path of the tileserve binary under test
	work      string // scratch directory inside the checkout
	stamp     stamp
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string           // correctness failures, for the log
	e2e               map[string]float64 // endToEnd metrics (trace off)
	layer             map[string]float64 // perLayer metrics (trace on)
	named             []namedMetric      // the workload's own figures, for people
	spans             []span
}

// namedMetric is one of the workload-specific end-to-end figures printed
// in the human-readable summary.
type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(e *env, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"figures":     runFigures,
	"plan-serve":  runPlanServe,
	"stencil-run": runStencil,
}

func main() {
	var (
		name      = flag.String("workload", "", "figures | plan-serve | stencil-run | all")
		seed      = flag.Int64("seed", 1, "workload seed (plan-serve draws its request stream from it)")
		seconds   = flag.Int("seconds", 20, "how long one run measures")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		tileserve = flag.String("tileserve", ".bench_build/bin/tileserve", "tileserve binary to benchmark")
		work      = flag.String("work", ".bench_build", "scratch directory")
		commit    = flag.String("commit", "unknown", "commit identifier to stamp results with")
	)
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		tileserve: *tileserve,
		work:      *work,
		stamp:     newStamp(*commit),
	}
	if *name == "all" {
		os.Exit(runAll(e))
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	os.Exit(runOne(e, *name, wl, *traceFlag == 1))
}

// runOne runs one workload and prints its summary and result line.
func runOne(e *env, name string, wl workloadFunc, traced bool) int {
	st, _ := json.Marshal(e.stamp)
	fmt.Printf("stamp: %s\n", st)
	o, err := wl(e, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	for _, m := range o.named {
		fmt.Printf("%-20s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if !traced {
		for _, m := range endToEnd {
			fmt.Printf("%-20s %14.6g %s\n", m.name, o.e2e[m.name], m.unit)
		}
	}
	fmt.Printf("%-20s %14.6g %-6s (%d of %d operations)\n", "fail_frac",
		float64(o.failed)/float64(o.attempted), "ratio", o.failed, o.attempted)
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	if traced {
		path, err := writeTrace(filepath.Join(e.work, "traces"), name, e.seed, e.stamp, o.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(o.spans), path)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{o.layer[m.name], m.unit}
			fmt.Printf("%-28s %14.6g %s\n", m.name, o.layer[m.name], m.unit)
		}
	} else {
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", name, m.name)
				return 1
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	return printResult(res)
}

func printResult(res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runAll runs every workload untraced, one after the other, and prints
// each workload's own end-to-end figures by name — the table a person
// reads. Its result line keys each figure as workload/name.
func runAll(e *env) int {
	st, _ := json.Marshal(e.stamp)
	fmt.Printf("stamp: %s\n", st)
	res := result{Metrics: make(map[string]metric)}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, err := workloads[n](e, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		for _, p := range o.problems {
			fmt.Printf("FAILED CHECK: %s: %s\n", n, p)
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		rows := append([]namedMetric{
			{name: "setup_s", value: o.e2e["setup_s"], unit: "s"},
			{name: "peak_rss_mb", value: o.e2e["peak_rss_mb"], unit: "MB"},
			{name: "fail_frac", value: float64(o.failed) / float64(o.attempted), unit: "ratio",
				note: fmt.Sprintf("(%d of %d operations)", o.failed, o.attempted)},
		}, o.named...)
		for _, m := range rows {
			fmt.Printf("%-12s %-20s %14.6g %-6s %s\n", n, m.name, m.value, m.unit, m.note)
			res.Metrics[n+"/"+m.name] = metric{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return printResult(res)
}
