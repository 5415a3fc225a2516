// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the public solver, sharding, serving, transport and
// mutation-log APIs, checks every answer for exactness outside the timed
// region, and prints one JSON result line as the last line of its output:
//
//	go run . --workload batch-bmm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (BENCHMARK.json
// "end_to_end"); with --trace 1 it carries the per-layer metrics, measured by
// spans the benchmark records around its calls into each layer, plus the
// tracing overhead (traced minus untraced value of every end-to-end metric).
// Run it from the repository root; run.py builds it and passes the flags on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// k is the top-K depth of every query the benchmark sends.
const k = 10

// runLimit bounds one invocation; the contract allows 180 s per run.
const runLimit = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with tracing
// off. Latency is per solve for the batch workloads and per request (from its
// due time) for the serving workloads. The tail is p90 everywhere: a batch run
// holds about a hundred solves, and a serving p99 tracks how often the host
// stalls the whole process for a few milliseconds, which moved it by up to
// 60% from run to run; the serving p99 is reported per layer
// (loadgen.latency_ms_p99). Index memory is reported per layer too
// (go.heap_mb): on the serving workloads it jumps with the planner's
// per-shard choices.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"users_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
}

// layerMetrics are the per-layer metrics of a traced run. A layer the
// workload does not load reports 0.
var layerMetrics = []metricDef{
	{"blas.gemm_ms", "ms"},
	{"blas.gemm_gflops", "GFLOP/s"},
	{"blas.gemm_flops_per_user", "flop"},
	{"topk.harvest_ms", "ms"},
	{"topk.merge_us_per_batch", "us"},
	{"bmm.query_ms", "ms"},
	{"bmm.scan_per_user", "count"},
	{"maximus.build_ms", "ms"},
	{"maximus.query_ms", "ms"},
	{"maximus.scan_per_user", "count"},
	{"lemp.build_ms", "ms"},
	{"lemp.query_ms", "ms"},
	{"lemp.scan_per_user", "count"},
	{"optimus.plan_ms", "ms"},
	{"optimus.overhead_ms", "ms"},
	{"optimus.sample_users", "count"},
	{"optimus.index_win_frac", "frac"},
	{"serving.queue_wait_ms_p50", "ms"},
	{"serving.queue_wait_ms_p99", "ms"},
	{"serving.batch_size_mean", "count"},
	{"shard.query_ms_p50", "ms"},
	{"shard.query_ms_p99", "ms"},
	{"shard.worker_ms_p50", "ms"},
	{"shard.worker_ms_p99", "ms"},
	{"shard.coord_self_ms_p50", "ms"},
	{"shard.scan_per_user", "count"},
	{"shard.mutate_ms_p50", "ms"},
	{"shard.mutate_ms_p99", "ms"},
	{"shard.rebuilds_per_mutation", "count"},
	{"shard.patches_per_mutation", "count"},
	{"transport.call_us_p50", "us"},
	{"transport.call_us_p99", "us"},
	{"transport.calls_per_batch", "count"},
	{"transport.bytes_per_user", "B"},
	{"mutlog.flushes_per_s", "1/s"},
	{"mutlog.events_per_flush", "count"},
	{"mutlog.enqueue_us_p99", "us"},
	{"mutlog.write_visible_ms_p50", "ms"},
	{"mutlog.write_visible_ms_p99", "ms"},
	{"go.allocs_per_user", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"go.heap_mb", "MB"},
	{"loadgen.latency_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.sustained_rps", "1/s"},
	{"determinism.unstable_counts", "count"},
	{"trace.spans", "count"},
	{"trace.overhead.setup_s", "s"},
	{"trace.overhead.users_per_s", "1/s"},
	{"trace.overhead.latency_ms_p50", "ms"},
	{"trace.overhead.latency_ms_p90", "ms"},
}

// options are the settings of one run. Real runs use scale 1; the self-test
// shrinks the corpus and the rates.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	// scale multiplies the registry model's user and item counts.
	scale float64
	// rateScale multiplies the serving workloads' offered rates.
	rateScale float64
	threads   int
	// injectWrong swaps one item of one answer of the timed phase before
	// the exactness gate sees it — the self-test's wrong answer.
	injectWrong bool
	// spanDir, when non-empty, receives the traced run's spans as JSON lines.
	spanDir string
}

// outcome is what a workload run reports: its metrics by name, the
// operations it attempted and how many failed (errors, refusals and wrong
// answers alike), and free-form notes (sample counts, winners) printed
// before the result line.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     map[string]any
}

// workloads maps each workload name to its runner. BENCHMARK.json records
// why each was chosen and which layers it loads.
var workloads = map[string]func(o options) (*outcome, error){
	"batch-bmm":   func(o options) (*outcome, error) { return runBatch("netflix-nomad-50", o) },
	"batch-index": func(o options) (*outcome, error) { return runBatch("kdd-nomad-50", o) },
	"serve-wire":  func(o options) (*outcome, error) { return runServe(serveWire, o) },
	"serve-churn": func(o options) (*outcome, error) { return runServe(serveChurn, o) },
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// run parses the flags, runs the workload and prints the provenance header,
// the notes and the result line. It returns the process exit code: 0 for a
// correct run, 1 when the exactness gate failed (the result is still
// printed), 2 when the run could not complete (no result is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: permutes the corpus and draws the request stream, the solver seeds and the write events")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{
		seed:      *seed,
		duration:  time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		scale:     1,
		rateScale: 1,
		threads:   runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		o.spanDir = os.Getenv("PERFBENCH_SPAN_DIR")
	}
	writeJSONLine(stdout, map[string]any{"provenance": provenance(*name, *seed, o.threads)})
	out, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	res, err := assemble(out, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	writeJSONLine(stdout, map[string]any{"notes": out.notes})
	writeJSONLine(stdout, res)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: exactness gate failed (%d of %d operations)\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// assemble turns an outcome into the result line, insisting that every
// metric of the requested set is present and finite and nothing else is.
func assemble(out *outcome, trace bool) (*result, error) {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(out.metrics) != len(defs) {
		return nil, errors.New("workload reported metrics outside the requested set")
	}
	return res, nil
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "%s\n", b)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
