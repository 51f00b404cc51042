// Command perfbench is the repository benchmark. It runs one seeded
// workload against the public API of the vega packages for a fixed
// number of seconds, checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// observability off. With --trace 1 a separate run installs the program's
// own obs instrumentation (a MemSink) next to the benchmark's timers and
// reports the per-layer metrics instead. Workloads, metrics and the
// reasons behind them are described in README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runner) error{
	"retarget":     runRetarget,
	"finetune":     runFinetune,
	"serve-mix":    runServeMix,
	"fleet-ingest": runFleetIngest,
}

// setupRepeats is the least number of times each workload sets itself
// up; setup_s is the median, so one slow repeat does not move the metric.
const setupRepeats = 3

// endToEnd and perLayer list every metric a run reports, with its unit.
// A workload that does not exercise a layer reports that layer's metrics
// as 0: nothing was done there.
//
// The end-to-end cost of an operation is its CPU time and heap
// allocation, not its wall time and the peak RSS: on the shared VM the
// benchmark was tuned on, wall-clock timings of identical runs drifted by
// 10-35% between minutes (CPU steal, fsync latency), and the peak RSS of
// training by up to 27% with GC timing, wider than any bound a gate can
// use. Wall-clock timings and the peak RSS are printed by name before the
// result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"quality_pct", "%"},
}

var perLayer = []metricDef{
	{"corpus.group_source_s", "s"},
	{"corpus.group_source_calls", "count"},
	{"corpus.reference_backend_s", "s"},
	{"stage1.self_s", "s"},
	{"stage1.group_build_s.p50", "s"},
	{"stage1.group_build_s.max", "s"},
	{"s1cache.hits", "count"},
	{"s1cache.misses", "count"},
	{"s1cache.hit_ratio", "ratio"},
	{"s1cache.store_errors", "count"},
	{"s1cache.edit_build_s", "s"},
	{"train.pretrain_s", "s"},
	{"train.fit_s", "s"},
	{"train.epoch_s.p50", "s"},
	{"train.verify_s", "s"},
	{"train.self_s", "s"},
	{"train.samples_per_s", "1/s"},
	{"train.retried_epochs", "count"},
	{"train.skipped_samples", "count"},
	{"gen.backend_s.RISCV", "s"},
	{"gen.backend_s.RI5CY", "s"},
	{"gen.backend_s.XCore", "s"},
	{"gen.module_s.SEL", "s"},
	{"gen.module_s.REG", "s"},
	{"gen.module_s.OPT", "s"},
	{"gen.module_s.SCH", "s"},
	{"gen.module_s.EMI", "s"},
	{"gen.module_s.ASS", "s"},
	{"gen.module_s.DIS", "s"},
	{"gen.fn_ms.p50", "ms"},
	{"gen.fn_ms.p90", "ms"},
	{"gen.queue_wait_ms.p50", "ms"},
	{"gen.recovered", "count"},
	{"gen.quant_decodes", "count"},
	{"gen.quant_fallbacks", "count"},
	{"gen.quant_fallback_ratio", "ratio"},
	{"model.encode_us_per_row", "us"},
	{"model.step_us", "us"},
	{"model.step_q_us", "us"},
	{"tensor.matmul_gflops.ffn", "GFLOP/s"},
	{"tensor.matmul.ffn.flops", "count"},
	{"tensor.matmul.ffn.bytes", "B"},
	{"tensor.matmul_nt_gflops.logits", "GFLOP/s"},
	{"tensor.matmul_nt.logits.flops", "count"},
	{"tensor.matmul_nt.logits.bytes", "B"},
	{"eval.backend_s", "s"},
	{"repair.attempted", "count"},
	{"repair.repaired", "count"},
	{"repair.candidates_tried", "count"},
	{"repair.yield", "ratio"},
	{"repair.rounds.p50", "count"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.job_ms.p50", "ms"},
	{"serve.job_ms.p99", "ms"},
	{"serve.overhead_ms.mean", "ms"},
	{"serve.latency_ms.p99", "ms"},
	{"serve.latency_ms.function.p50", "ms"},
	{"serve.latency_ms.module.p50", "ms"},
	{"serve.latency_ms.verify.p50", "ms"},
	{"serve.latency_ms.quantize.p50", "ms"},
	{"serve.latency_ms.float32.p50", "ms"},
	{"serve.latency_ms.function.mean", "ms"},
	{"serve.latency_ms.module.mean", "ms"},
	{"serve.latency_ms.verify.mean", "ms"},
	{"serve.latency_ms.quantize.mean", "ms"},
	{"serve.latency_ms.float32.mean", "ms"},
	{"serve.rejected", "count"},
	{"serve.deadline_hits", "count"},
	{"serve.degraded", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"obs.overhead_pct", "%"},
	{"trace.accounted_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner carries one run's settings and collects what the workload
// measures and checks.
type runner struct {
	root     string // checkout root
	state    string // build and cache directory inside the checkout
	seed     int64
	seconds  float64
	trace    bool
	e2e      map[string]float64
	layer    map[string]float64
	report   []string // human-readable lines printed before the result
	problems []string // failed output checks
	// attempted and failed count the workload's operations.
	attempted, failed int
}

// maxProblems bounds how many failed checks a run spells out; the rest
// are counted.
const maxProblems = 20

// fail records a failed output check; any failure makes the run
// incorrect.
func (r *runner) fail(format string, args ...any) {
	switch {
	case len(r.problems) < maxProblems:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	case len(r.problems) == maxProblems:
		r.problems = append(r.problems, "further failed checks omitted")
	}
}

// note adds a line to the human-readable report.
func (r *runner) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// timing reports a timing by the issue's name with its median, the
// highest percentile that has at least ten samples beyond it, and the
// sample count.
func (r *runner) timing(name, unit string, xs []float64) {
	if len(xs) == 0 {
		r.note("%-28s no samples", name)
		return
	}
	line := fmt.Sprintf("%-28s p50 %.4g %s", name, median(xs), unit)
	if p, ok := tailPercentile(len(xs)); ok {
		line += fmt.Sprintf("  p%g %.4g %s", p, percentile(xs, p), unit)
	}
	r.note("%s  (n=%d)", line, len(xs))
}

func main() {
	workload := flag.String("workload", "", "workload: retarget, finetune, serve-mix, fleet-ingest")
	seed := flag.Int64("seed", 1, "seed for the benchmark's generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root")
	state := flag.String("state", ".bench_build", "directory for build outputs and caches")
	prep := flag.Bool("prepare", false, "only build this checkout's prepared state (run as a child process)")
	flag.Parse()

	if *prep {
		if err := buildPrepared(&runner{root: *root, state: *state}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := &runner{root: *root, state: *state, seed: *seed, seconds: *seconds, trace: *trace == 1,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.note("%-28s %.1f MB", "peak_rss_mb", peakRSSMB())

	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.e2e
	if r.trace {
		defs, values = perLayer, r.layer
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		r.fail("no operation attempted")
		res.Correct = false
	}
	for _, line := range r.report {
		fmt.Println(line)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// allocBytes is the total the Go heap has allocated so far.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the user and system CPU time the process has used so far,
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta measures allocation and GC cycles over a phase.
type memDelta struct{ alloc, gc uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

func (m memDelta) since(start memDelta) (allocMB, gcCycles float64) {
	return float64(m.alloc-start.alloc) / (1 << 20), float64(m.gc - start.gc)
}

// timeSetup runs setup setupRepeats times, records the median as
// setup_s, and returns the last instance. Earlier instances are released
// with discard before the next one is built.
func timeSetup[T any](r *runner, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	var secs []float64
	// Cheap set-ups repeat until they fill a second, so that their median
	// rests on enough samples to be steady.
	for i := 0; i < setupRepeats || (sum(secs) < 1 && i < 1000); i++ {
		if i > 0 {
			if discard != nil {
				discard(last)
			}
			runtime.GC() // drop the previous instance before building the next
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	r.e2e["setup_s"] = median(secs)
	r.timing("setup_s", "s", secs)
	runtime.GC() // start the measured phase from the same heap every run
	return last, nil
}

// window runs op until budget has elapsed, at least minOps times, and
// returns the wall time spent. op reports false to stop early.
func window(budget time.Duration, minOps int, op func() bool) time.Duration {
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < budget; n++ {
		if !op() {
			break
		}
	}
	return time.Since(start)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled multiplies every sample, e.g. seconds to milliseconds.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
