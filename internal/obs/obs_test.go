package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines; run under -race this proves the hot
// path is data-race-free, and the totals prove no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	o := New(nil)
	c := o.Counter("c")
	g := o.Gauge("g")
	h := o.Histogram("h")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(0.5)
				g.Set(float64(w))
				h.Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Value(), float64(workers*per)*1.5; got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-float64(workers*per)*0.01) > 1e-6 {
		t.Errorf("histogram sum = %v", h.Sum())
	}
	if gv := g.Value(); gv < 0 || gv >= workers {
		t.Errorf("gauge = %v, want a worker index", gv)
	}
}

// TestInstrumentIdentity: the same name must return the same instrument.
func TestInstrumentIdentity(t *testing.T) {
	o := New(nil)
	if o.Counter("x") != o.Counter("x") {
		t.Error("counter identity lost")
	}
	o.Counter("x").Add(2)
	if v := o.Counter("x").Value(); v != 2 {
		t.Errorf("value = %v", v)
	}
}

// TestNilObserverInert: every operation on a nil observer and its nil
// instruments must be a no-op with zero allocations — the overhead
// contract the Stage 3 hot path depends on.
func TestNilObserverInert(t *testing.T) {
	var o *Obs
	c, g, h := o.Counter("c"), o.Gauge("g"), o.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
		sp := o.StartSpan("s")
		sp.SetAttr(String("k", "v"))
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-observer path allocates %v per op, want 0", allocs)
	}
	if o.Snapshot() != nil {
		t.Error("nil snapshot must be nil")
	}
	o.Flush()
	if err := o.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
	ctx := With(context.Background(), nil)
	if From(ctx) != nil {
		t.Error("With(nil) must not install an observer")
	}
	ctx2, sp := Start(ctx, "s")
	if ctx2 != ctx || sp != nil {
		t.Error("Start without observer must be inert")
	}
}

// TestSpanNesting checks parent links and End order: children end
// before parents, and each child records its parent's ID.
func TestSpanNesting(t *testing.T) {
	mem := &MemSink{}
	o := New(mem)
	ctx := With(context.Background(), o)
	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	// A sibling of child, still under root.
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	spans := mem.Spans()
	names := make([]string, len(spans))
	byName := map[string]SpanData{}
	for i, s := range spans {
		names[i] = s.Name
		byName[s.Name] = s
	}
	want := []string{"grandchild", "child", "sibling", "root"}
	if len(names) != len(want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("end order = %v, want %v", names, want)
		}
	}
	if byName["root"].Parent != 0 {
		t.Error("root must be parentless")
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Error("child not parented to root")
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Error("grandchild not parented to child")
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Error("sibling not parented to root")
	}
	if byName["root"].Dur <= 0 {
		t.Error("root duration not stamped")
	}
}

// TestSpanEndIdempotent: double End emits once.
func TestSpanEndIdempotent(t *testing.T) {
	mem := &MemSink{}
	o := New(mem)
	sp := o.StartSpan("once")
	sp.End()
	sp.End()
	if n := len(mem.Spans()); n != 1 {
		t.Errorf("span emitted %d times", n)
	}
}

// TestSnapshotAndMemSink: Flush delivers a sorted, complete snapshot.
func TestSnapshotAndMemSink(t *testing.T) {
	mem := &MemSink{}
	o := New(mem)
	o.Counter("b.count").Add(3)
	o.Gauge("a.gauge").Set(1.5)
	o.Histogram("c.hist").Observe(0.2)
	o.Flush()
	ms := mem.Metrics()
	if len(ms) != 3 {
		t.Fatalf("snapshot = %d metrics", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name >= ms[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", ms[i-1].Name, ms[i].Name)
		}
	}
	if m, ok := mem.Metric("b.count"); !ok || m.Value != 3 || m.Kind != "counter" {
		t.Errorf("b.count = %+v, ok=%v", m, ok)
	}
	if m, ok := mem.Metric("c.hist"); !ok || m.Count != 1 || len(m.Counts) != len(m.Bounds)+1 {
		t.Errorf("c.hist = %+v, ok=%v", m, ok)
	}
}

// TestHistogramBuckets: observations land in the right buckets,
// including the overflow slot.
func TestHistogramBuckets(t *testing.T) {
	o := New(nil)
	h := o.Histogram("h", 1, 10)
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	m := h.metric()
	want := []uint64{2, 1, 1} // ≤1: {0.5, 1}; ≤10: {5}; overflow: {100}
	for i, w := range want {
		if m.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, m.Counts[i], w, m.Counts)
		}
	}
	if m.Count != 4 {
		t.Errorf("count = %d", m.Count)
	}
}

// TestJSONLSink writes spans and a snapshot, then parses the file back.
func TestJSONLSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	o := New(sink)
	sp := o.StartSpan("stage/test", String("target", "RISCV"))
	sp.End()
	o.Counter("gen.functions").Add(7)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans, metrics int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch rec["type"] {
		case "span":
			spans++
			if rec["name"] != "stage/test" {
				t.Errorf("span name = %v", rec["name"])
			}
			attrs, _ := rec["attrs"].(map[string]any)
			if attrs["target"] != "RISCV" {
				t.Errorf("span attrs = %v", rec["attrs"])
			}
		case "metric":
			metrics++
			if rec["name"] != "gen.functions" || rec["value"].(float64) != 7 {
				t.Errorf("metric = %v", rec)
			}
		default:
			t.Errorf("unknown record type %v", rec["type"])
		}
	}
	if spans != 1 || metrics != 1 {
		t.Errorf("file has %d spans, %d metrics", spans, metrics)
	}
}

// TestJSONLSinkFlushMakesLinesDurable proves the crash-survival contract:
// after an explicit Flush, every line written so far is readable from the
// file even though the sink is still open (nothing stuck in the buffer).
func TestJSONLSinkFlushMakesLinesDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	o := New(sink)
	for i := 0; i < 10; i++ {
		o.StartSpan("flush/test").End()
	}
	o.Flush() // metric snapshot line(s)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines < 10 {
		t.Errorf("only %d lines durable before Close, want >= 10", lines)
	}
}

// TestJSONLSinkPeriodicFlush starts the background flusher and waits for
// it to push buffered spans without any explicit Flush call.
func TestJSONLSinkPeriodicFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.FlushEvery(5 * time.Millisecond)
	sink.FlushEvery(5 * time.Millisecond) // second start is a no-op
	o := New(sink)
	o.StartSpan("periodic/test").End()

	deadline := time.Now().Add(2 * time.Second)
	for {
		raw, _ := os.ReadFile(path)
		if len(raw) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic flusher never made the span durable")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Close again is harmless for the flusher bookkeeping (file close
	// errors are expected and ignored here).
	sink.Close()
}

// TestObsFlushEvery snapshots metrics on a ticker until stopped.
func TestObsFlushEvery(t *testing.T) {
	mem := &MemSink{}
	o := New(mem)
	o.Counter("periodic.count").Add(3)
	stop := o.FlushEvery(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, ok := mem.Metric("periodic.count"); ok && m.Value == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("FlushEvery never snapshotted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent

	// Nil observer and disabled interval both return working no-ops.
	var nilObs *Obs
	nilObs.FlushEvery(time.Millisecond)()
	New(nil).FlushEvery(0)()
}

// BenchmarkCounterAdd measures the installed-observer hot path.
func BenchmarkCounterAdd(b *testing.B) {
	c := New(nil).Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNilCounterAdd measures the disabled (nil) hot path.
func BenchmarkNilCounterAdd(b *testing.B) {
	var o *Obs
	c := o.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
