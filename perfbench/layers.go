package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vega/internal/core"
	"vega/internal/model"
	"vega/internal/obs"
	"vega/internal/tensor"
)

// tracer is the traced side of a run: the program's obs instrumentation
// recording into memory.
type tracer struct {
	mem *obs.MemSink
	o   *obs.Obs
}

func newTracer() *tracer {
	mem := &obs.MemSink{}
	return &tracer{mem: mem, o: obs.New(mem)}
}

// spans returns the durations, in seconds, of every completed span with
// the given name.
func (t *tracer) spans(name string) []float64 {
	var out []float64
	for _, s := range t.mem.Spans() {
		if s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// childSpans is spans restricted to those whose parent has parentName.
func (t *tracer) childSpans(name, parentName string) []float64 {
	all := t.mem.Spans()
	names := make(map[uint64]string, len(all))
	for _, s := range all {
		names[s.ID] = s.Name
	}
	var out []float64
	for _, s := range all {
		if s.Name == name && names[s.Parent] == parentName {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// metric looks an instrument up in a fresh snapshot.
func (t *tracer) metric(name string) (obs.Metric, bool) {
	for _, m := range t.o.Snapshot() {
		if m.Name == name {
			return m, true
		}
	}
	return obs.Metric{}, false
}

// value is a counter's total or a gauge's last value; 0 when the
// instrument was never created.
func (t *tracer) value(name string) float64 {
	m, _ := t.metric(name)
	return m.Value
}

// gauges returns the values of every gauge whose name has prefix.
func (t *tracer) gauges(prefix string) []float64 {
	var out []float64
	for _, m := range t.o.Snapshot() {
		if m.Kind == "gauge" && strings.HasPrefix(m.Name, prefix) {
			out = append(out, m.Value)
		}
	}
	return out
}

// quantile estimates a histogram quantile by linear interpolation inside
// the bucket that holds it.
func (t *tracer) quantile(name string, q float64) float64 {
	m, ok := t.metric(name)
	if !ok || m.Count == 0 {
		return 0
	}
	rank := q * float64(m.Count)
	seen := 0.0
	for i, c := range m.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = m.Bounds[i-1]
			}
			if i == len(m.Bounds) { // overflow bucket: report its lower edge
				return lo
			}
			return lo + (m.Bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return m.Bounds[len(m.Bounds)-1]
}

// writeSpans writes the recorded spans as JSON lines under the state
// directory, one file per workload, when the traced run ends.
func (t *tracer) writeSpans(r *runner, workload string) error {
	dir := filepath.Join(r.state, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.mem.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stage1Layers reports the Stage 1 layers of one traced pipeline build
// that took wall seconds: the corpus share timed by the provider
// decorator, the rest (templatization, alignment, feature mining, cache)
// as Stage 1's own time, and the per-group build times the worker pool
// waits on.
func stage1Layers(r *runner, t *tracer, wall float64, groupSource time.Duration, groupCalls, workers int) {
	r.layer["corpus.group_source_s"] = groupSource.Seconds()
	r.layer["corpus.group_source_calls"] = float64(groupCalls)
	// The decorator sums time over the pool's workers; divide by their
	// count to get the corpus share of the build's wall time.
	r.layer["stage1.self_s"] = wall - groupSource.Seconds()/float64(max(workers, 1))
	builds := t.gauges("stage1.group_build_seconds.")
	r.layer["stage1.group_build_s.p50"] = median(builds)
	maxBuild := 0.0
	for _, b := range builds {
		maxBuild = math.Max(maxBuild, b)
	}
	r.layer["stage1.group_build_s.max"] = maxBuild
}

// stage3Layers reports the generation layer from the program's own
// Stage 3 instruments.
func stage3Layers(r *runner, t *tracer) {
	fn := scaled(t.spans("stage3/function"), 1000)
	r.layer["gen.fn_ms.p50"] = median(fn)
	r.layer["gen.fn_ms.p90"] = percentile(fn, 90)
	r.layer["gen.queue_wait_ms.p50"] = 1000 * t.quantile("gen.queue_wait_seconds", 0.5)
	r.layer["gen.recovered"] = t.value("gen.recovered_panics")
	qd, qf := t.value("gen.quant_decodes"), t.value("gen.quant_fallbacks")
	r.layer["gen.quant_decodes"] = qd
	r.layer["gen.quant_fallbacks"] = qf
	r.layer["gen.quant_fallback_ratio"] = ratio(qf, qd)
}

// repairLayers reports the verify-and-repair loop's counters.
func repairLayers(r *runner, t *tracer) {
	tried, repaired := t.value("repair.candidates_tried"), t.value("repair.repaired")
	r.layer["repair.attempted"] = t.value("repair.attempted")
	r.layer["repair.repaired"] = repaired
	r.layer["repair.candidates_tried"] = tried
	r.layer["repair.yield"] = ratio(repaired, tried)
	r.layer["repair.rounds.p50"] = t.quantile("repair.rounds", 0.5)
}

// phaseLayers reports allocation and tracing overhead for a traced phase
// against its untraced twin, and records how much of the traced phase's
// wall time the stage timings account for. The ROADMAP asks for the
// stage shares to cover the wall time within 2%; a larger gap fails the
// run, because the per-layer table would then miss where time went.
func phaseLayers(r *runner, mem memDelta, tracedOp, untracedOp, accounted, wall float64) {
	r.layer["runtime.alloc_mb"], r.layer["runtime.gc_cycles"] = memNow().since(mem)
	r.layer["obs.overhead_pct"] = 100 * (ratio(tracedOp, untracedOp) - 1)
	pct := 100 * ratio(accounted, wall)
	r.layer["trace.accounted_pct"] = pct
	if math.Abs(pct-100) > 2 {
		r.fail("stage timings account for %.2f%% of the traced wall time, want 100±2%%", pct)
	}
	r.note("traced phase: stage timings cover %.2f%% of %.3f s wall; tracing overhead %+.2f%%",
		pct, wall, r.layer["obs.overhead_pct"])
}

// modelProbes times the decode layers on real inputs from the training
// set and the matmul kernels at the model's own shapes. It runs after
// the measured phases: TrainingData rebuilds the (identical) vocabulary.
func modelProbes(r *runner, p *core.Pipeline) error {
	t, ok := p.Model.(*model.Transformer)
	if !ok {
		return fmt.Errorf("model probes need a transformer, have %T", p.Model)
	}
	samples := p.TrainingData()
	const rows = 128 // one Stage 3 encoder chunk
	if len(samples) < rows {
		return fmt.Errorf("model probes need %d training samples, have %d", rows, len(samples))
	}
	inputs := make([][]int, rows)
	inTokens := 0
	for i := range inputs {
		inputs[i] = samples[i].Input
		inTokens += len(inputs[i])
	}
	r.note("model probes: %d training inputs of %.1f tokens on average", rows, float64(inTokens)/rows)

	var encSecs []float64
	var mems [][]float32
	for i := 0; i < 5; i++ {
		start := time.Now()
		mems = t.EncodeBatch(inputs, false)
		encSecs = append(encSecs, time.Since(start).Seconds())
	}
	r.layer["model.encode_us_per_row"] = 1e6 * median(encSecs) / rows

	step := func(quantized bool) float64 {
		var total time.Duration
		steps := 0
		for _, mem := range mems[:32] {
			d := t.NewIncrementalDecoderFromMemory(mem, quantized)
			last := model.BOS
			for n := 0; n < p.Cfg.MaxOutPieces && n+1 < t.Cfg.MaxSeq; n++ {
				start := time.Now()
				logits := d.Step(last)
				total += time.Since(start)
				steps++
				last = argmax(logits)
				if last == model.EOS {
					break
				}
			}
			d.Release()
		}
		return 1e6 * total.Seconds() / float64(max(steps, 1))
	}
	r.layer["model.step_us"] = step(false)
	r.layer["model.step_q_us"] = step(true)

	// Kernels at the model's shapes: the FFN expansion over one training
	// minibatch of tokens, and the logits projection against the
	// vocabulary.
	const tokens = 1024
	dim, ff, vocab := t.Cfg.Dim, t.Cfg.Dim*t.Cfg.FFMult, t.Cfg.Vocab
	ffnFlops, ffnBytes, ffnGF := kernelProbe(tokens, dim, ff, func(out, a, b []float32) {
		tensor.MatMul(out, a, b, tokens, dim, ff)
	})
	r.layer["tensor.matmul_gflops.ffn"] = ffnGF
	r.layer["tensor.matmul.ffn.flops"] = ffnFlops
	r.layer["tensor.matmul.ffn.bytes"] = ffnBytes
	ntFlops, ntBytes, ntGF := kernelProbe(tokens, dim, vocab, func(out, a, b []float32) {
		tensor.MatMulNT(out, a, b, tokens, dim, vocab)
	})
	r.layer["tensor.matmul_nt_gflops.logits"] = ntGF
	r.layer["tensor.matmul_nt.logits.flops"] = ntFlops
	r.layer["tensor.matmul_nt.logits.bytes"] = ntBytes
	return nil
}

// kernelProbe times an r×k by k×c product (b is laid out as the kernel
// expects) for at least 50 ms and returns its operation count, the bytes
// of its operands and result, and the achieved GFLOP/s.
func kernelProbe(r, k, c int, kernel func(out, a, b []float32)) (flops, bytes, gflops float64) {
	a := make([]float32, r*k)
	b := make([]float32, k*c)
	out := make([]float32, r*c)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	flops = 2 * float64(r) * float64(k) * float64(c)
	bytes = 4 * float64(r*k+k*c+r*c)
	kernel(out, a, b) // warm up
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		kernel(out, a, b)
		n++
	}
	return flops, bytes, flops * float64(n) / time.Since(start).Seconds() / 1e9
}

func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
