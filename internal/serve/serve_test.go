package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/faultinject"
	"vega/internal/generate"
)

// ---- shared fixture -------------------------------------------------------

var (
	fixMu     sync.Mutex
	fixCorpus *corpus.Stream
	fixPipes  = map[int64]*core.Pipeline{}
)

func testCorpus(t *testing.T) *corpus.Stream {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if fixCorpus == nil {
		fixCorpus = corpus.NewStream(corpus.Targets())
	}
	return fixCorpus
}

func tinyConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxSamples = 300
	cfg.Pretrain = false
	cfg.Train.Epochs = 2
	cfg.Model.Dim = 32
	cfg.Model.EncLayers = 1
	cfg.Model.DecLayers = 1
	cfg.Model.MaxSeq = 128
	cfg.MaxOutPieces = 24
	cfg.Seed = seed
	return cfg
}

// freshPipeline builds a decode-capable pipeline with deterministic
// untrained weights (serving only needs output *stability*, not quality).
func freshPipeline(t *testing.T, seed int64) *core.Pipeline {
	t.Helper()
	p, err := core.NewFromProvider(testCorpus(t), tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InitUntrained(); err != nil {
		t.Fatal(err)
	}
	return p
}

// testPipeline memoizes freshPipeline per seed: serving is strictly
// read-only over the pipeline, so tests can share one instance.
func testPipeline(t *testing.T, seed int64) *core.Pipeline {
	t.Helper()
	c := testCorpus(t)
	_ = c
	fixMu.Lock()
	p := fixPipes[seed]
	fixMu.Unlock()
	if p != nil {
		return p
	}
	p = freshPipeline(t, seed)
	fixMu.Lock()
	fixPipes[seed] = p
	fixMu.Unlock()
	return p
}

// testServer stands up a server over a seed-1 boot snapshot plus an
// httptest listener; mut customizes the config before construction.
func testServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:         2,
		QueueCap:        4,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     time.Minute,
		DrainTimeout:    5 * time.Second,
		Policy:          DefaultDegradePolicy(),
		HealthTarget:    "RISCV",
	}
	if mut != nil {
		mut(&cfg)
	}
	srv := New(cfg, NewSnapshot("boot-1", "test", testPipeline(t, 1)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.sched.Stop()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// fingerprint mirrors the core package's backendFingerprint: everything
// that must be invariant across snapshots built from the same seed.
func fingerprint(b *generate.Backend) string {
	var sb strings.Builder
	for _, f := range b.Functions {
		fmt.Fprintf(&sb, "%s|%s|%s|%s\n", f.Name, f.Module, f.Target, f.Err)
		for _, s := range f.Statements {
			fmt.Fprintf(&sb, "  %d|%q|%v|%v|%v\n", s.Row, s.Text, s.Absent, s.Score, s.Formula)
		}
	}
	return sb.String()
}

// ---- scheduler ------------------------------------------------------------

func TestSchedulerShedsAtQueueCap(t *testing.T) {
	s := NewScheduler(1, 1, nil)
	defer s.Stop()
	ctx := context.Background()

	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ran, err := s.Do(ctx, func(context.Context) { close(started); <-block })
		if !ran || err != nil {
			t.Errorf("running job: ran=%v err=%v", ran, err)
		}
	}()
	<-started // worker is busy

	wg.Add(1)
	go func() {
		defer wg.Done()
		ran, err := s.Do(ctx, func(context.Context) {})
		if !ran || err != nil {
			t.Errorf("queued job: ran=%v err=%v", ran, err)
		}
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 }) // queue slot taken

	if _, err := s.Do(ctx, func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third job: err=%v, want ErrQueueFull", err)
	}
	if ra := s.RetryAfter(); ra < 1 {
		t.Errorf("RetryAfter() = %d, want >= 1", ra)
	}
	if p := s.Pressure(); p < 0.5 {
		t.Errorf("Pressure() = %v with full worker + full queue, want >= 0.5", p)
	}

	close(block)
	wg.Wait()
}

func TestSchedulerSkipsDeadlineExpiredJob(t *testing.T) {
	s := NewScheduler(1, 1, nil)
	ctx := context.Background()

	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(ctx, func(context.Context) { close(started); <-block })
	}()
	<-started

	// Enqueue behind the blocked worker with an already-short deadline.
	var ranDead bool
	shortCtx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ran, err := s.Do(shortCtx, func(context.Context) { ranDead = true })
		if ran || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("dead job: ran=%v err=%v, want deadline exceeded", ran, err)
		}
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 })
	<-shortCtx.Done() // deadline passes while queued

	close(block)
	s.Stop() // drains the queue; the dead job must be skipped, not run
	wg.Wait()
	if ranDead {
		t.Error("worker ran a job whose deadline expired while queued")
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(2, 2, nil)
	ran := false
	if _, err := s.Do(context.Background(), func(context.Context) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("job did not run")
	}
	s.Stop()
	s.Stop() // idempotent
	if _, err := s.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Do after Stop: err=%v, want ErrStopped", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- snapshot / holder ----------------------------------------------------

func TestHolderSwapDrainsOldSnapshot(t *testing.T) {
	a := NewSnapshot("a", "test", nil)
	b := NewSnapshot("b", "test", nil)
	h := NewHolder(a)

	snap, release := h.Acquire()
	if snap != a {
		t.Fatalf("Acquire() = %s, want a", snap.ID)
	}

	// With a pinned, the swap installs b immediately but the drain misses
	// its (short) timeout.
	old, drained := h.Swap(b, 20*time.Millisecond)
	if old != a || drained {
		t.Fatalf("Swap() = (%s, %v), want (a, false)", old.ID, drained)
	}
	if h.Current() != b {
		t.Fatal("current snapshot is not b after swap")
	}
	if got, rel := h.Acquire(); got != b {
		t.Fatalf("post-swap Acquire() = %s, want b", got.ID)
	} else {
		rel()
	}
	if a.Drained() {
		t.Fatal("a reports drained while still pinned")
	}

	release()
	if !a.Drained() {
		t.Fatal("a not drained after last release")
	}

	// No pins: the next swap drains instantly.
	c := NewSnapshot("c", "test", nil)
	if _, drained := h.Swap(c, time.Second); !drained {
		t.Error("swap with no in-flight requests did not drain")
	}
}

func TestHolderNextID(t *testing.T) {
	h := NewHolder(NewSnapshot("boot-1", "test", nil))
	if id := h.NextID("reload"); id != "reload-1" {
		t.Errorf("NextID = %q, want reload-1", id)
	}
	if id := h.NextID("reload"); id != "reload-2" {
		t.Errorf("NextID = %q, want reload-2", id)
	}
}

func TestSnapshotHealthCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	ctx := context.Background()

	good := NewSnapshot("good", "test", testPipeline(t, 1))
	if err := good.HealthCheck(ctx, "RISCV"); err != nil {
		t.Errorf("healthy snapshot rejected: %v", err)
	}

	// A pipeline with Stage 1 artifacts but no weights (a checkpoint that
	// failed to load, say) must be rejected before cutover.
	empty, err := core.NewFromProvider(testCorpus(t), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := NewSnapshot("bad", "test", empty)
	if err := bad.HealthCheck(ctx, "RISCV"); err == nil {
		t.Error("weightless snapshot passed the health check")
	}
}

// ---- degrade policy -------------------------------------------------------

func TestDegradePolicyLadder(t *testing.T) {
	d := DefaultDegradePolicy()

	// Below the 0.75 rungs every request keeps full fidelity, including
	// the 0.5–0.75 band.
	for _, p := range []float64{0.2, 0.6, 0.74} {
		opt, reasons, trunc := d.Apply(core.GenOptions{Verify: true}, p)
		if opt.SkipRepair || opt.MaxFunctions != 0 || len(reasons) != 0 || trunc != "" {
			t.Errorf("pressure %.2f degraded: opt=%+v reasons=%v trunc=%q", p, opt, reasons, trunc)
		}
	}

	opt, reasons, trunc := d.Apply(core.GenOptions{Verify: true}, 0.9)
	wantReasons := []string{"repair rounds skipped: pressure 0.90 >= 0.75"}
	if !opt.SkipRepair || opt.MaxFunctions != d.TruncateFunctions ||
		!reflect.DeepEqual(reasons, wantReasons) || trunc != "maxFunctions=16: pressure 0.90 >= 0.75" {
		t.Errorf("high pressure: opt=%+v reasons=%q trunc=%q, want all rungs", opt, reasons, trunc)
	}

	// The truncation rationale is returned out of band: it must only reach
	// the degrade reasons when the backend actually comes back Truncated.
	for _, r := range reasons {
		if strings.Contains(r, "maxFunctions") {
			t.Errorf("truncation reason %q leaked into the unconditional reasons", r)
		}
	}

	// A request already below the truncation cap keeps its own tighter
	// cap, and without verify no rung fires.
	opt, reasons, trunc = d.Apply(core.GenOptions{MaxFunctions: 3}, 0.9)
	if opt.MaxFunctions != 3 || len(reasons) != 0 || trunc != "" {
		t.Errorf("tight request: opt=%+v reasons=%v trunc=%q, want no rung",
			opt, reasons, trunc)
	}

	// Core treats any cap <= 0 as unlimited, so the rung caps a negative
	// one like 0 (the handler rejects negative caps before this point).
	if opt, _, trunc = d.Apply(core.GenOptions{MaxFunctions: -1}, 0.9); opt.MaxFunctions != d.TruncateFunctions || trunc == "" {
		t.Errorf("negative cap: MaxFunctions=%d trunc=%q, want the truncation rung", opt.MaxFunctions, trunc)
	}

	// The zero policy disables every rung.
	opt, reasons, trunc = DegradePolicy{}.Apply(core.GenOptions{Verify: true}, 1.0)
	if opt.SkipRepair || opt.MaxFunctions != 0 || len(reasons) != 0 || trunc != "" {
		t.Errorf("zero policy degraded: opt=%+v reasons=%v trunc=%q", opt, reasons, trunc)
	}
}

// ---- HTTP handlers --------------------------------------------------------

func TestHandleGenerateFunctionScope(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	_, ts := testServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Snapshot != "boot-1" || gr.Degraded || len(gr.Functions) != 1 {
		t.Fatalf("response = snapshot=%s degraded=%v functions=%d, want boot-1/false/1",
			gr.Snapshot, gr.Degraded, len(gr.Functions))
	}
	if f := gr.Functions[0]; f.Name != "getRelocType" || f.Failed || len(f.Statements) == 0 {
		t.Errorf("function = %+v, want non-failed getRelocType with statements", f)
	}
}

// TestServeIgnoresQuantizeField pins the wire contract of the retired
// "quantize" request field: the server still accepts it, and a request
// that sets it returns 200, is not marked degraded, and carries functions
// byte-identical to the same request without it.
func TestServeIgnoresQuantizeField(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	_, ts := testServer(t, nil)

	_, refBody := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Module: "EMI"})
	var ref GenerateResponse
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}

	// A raw body, as an old client sends it.
	resp, qBody := postJSON(t, ts.URL+"/v1/generate",
		map[string]any{"target": "RISCV", "module": "EMI", "quantize": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, qBody)
	}
	var q GenerateResponse
	if err := json.Unmarshal(qBody, &q); err != nil {
		t.Fatal(err)
	}
	if q.Degraded {
		t.Errorf("request with quantize set marked degraded: %v", q.DegradeReasons)
	}
	refFns, _ := json.Marshal(ref.Functions)
	qFns, _ := json.Marshal(q.Functions)
	if string(refFns) != string(qFns) {
		t.Error("request with quantize set returned different functions")
	}
}

func TestHandleGenerateValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	cases := []struct {
		name string
		req  GenerateRequest
		want int
	}{
		{"unknown target", GenerateRequest{Target: "Z80"}, http.StatusBadRequest},
		{"unknown module", GenerateRequest{Target: "RISCV", Module: "XYZ"}, http.StatusBadRequest},
		{"unknown function", GenerateRequest{Target: "RISCV", Function: "nope"}, http.StatusBadRequest},
		{"negative max_functions", GenerateRequest{Target: "RISCV", MaxFunctions: -1}, http.StatusBadRequest},
		// 2^62 ms overflows time.Duration; clamped first, it is MaxDeadline.
		{"overflowing deadline_ms", GenerateRequest{Target: "RISCV", Function: "getRelocType", DeadlineMS: 1 << 62}, http.StatusOK},
		{"oversized body", GenerateRequest{Target: strings.Repeat("x", maxRequestBytes)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/generate", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/generate"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	// Reload without a configured loader is 501, not a crash.
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Checkpoint: "x"}); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("reload without loader: status %d, want 501", resp.StatusCode)
	}
}

func TestHandleGenerateAdmitRejectFault(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	faultinject.Reset()
	defer faultinject.Reset()
	_, ts := testServer(t, nil)

	faultinject.Arm(faultinject.ServeAdmitReject, "RISCV")
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var ej errorJSON
	if err := json.Unmarshal(body, &ej); err != nil || ej.RetryAfter < 1 {
		t.Errorf("429 body = %s (err %v), want retry_after_s >= 1", body, err)
	}

	// The fault is one-shot: the retry succeeds.
	resp, body = postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

func TestHandleGenerateHandlerPanicFault(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	faultinject.Reset()
	defer faultinject.Reset()
	_, ts := testServer(t, nil)

	faultinject.Arm(faultinject.ServeHandlerPanic, "RISCV")
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want degraded 200 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Vega-Degraded") != "true" {
		t.Error("panicked request missing X-Vega-Degraded header")
	}
	var gr GenerateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if !gr.Degraded || !strings.Contains(strings.Join(gr.DegradeReasons, " "), "panic recovered") {
		t.Errorf("response = %+v, want degraded with panic reason", gr)
	}
}

func TestHandleGenerateDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	_, ts := testServer(t, nil)
	// A whole-backend request cannot finish in 1ms: the deadline fires
	// either while queued or mid-generation; both answer 504.
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", DeadlineMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
}

// TestHandleGeneratePinsAdmissionSnapshot reloads while a request waits
// in the queue behind a busy worker. The request was validated against
// the boot snapshot, so it must generate on that snapshot too, not on the
// one installed while it waited.
func TestHandleGeneratePinsAdmissionSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	srv, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	boot := srv.Snapshot()

	// Occupy the only worker until the swap is done. The cleanup frees
	// it if the test stops early, so the scheduler's Stop cannot hang.
	busy, blocked := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(blocked) })
	t.Cleanup(unblock)
	go srv.sched.Do(context.Background(), func(context.Context) {
		close(busy)
		<-blocked
	})
	<-busy

	type reply struct {
		code int
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		raw, _ := json.Marshal(GenerateRequest{Target: "RISCV", Function: "getRelocType"})
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		done <- reply{resp.StatusCode, body.Bytes(), err}
	}()
	waitFor(t, func() bool { return srv.sched.waiting.Load() == 1 })

	srv.holder.Swap(NewSnapshot("reload-1", "test", testPipeline(t, 1)), 0)
	if boot.Drained() {
		t.Error("boot snapshot drained while a request admitted under it was still queued")
	}
	unblock()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("status %d, body %s", r.code, r.body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(r.body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Snapshot != boot.ID {
		t.Errorf("request validated on %s was generated on %s", boot.ID, gr.Snapshot)
	}
	waitFor(t, boot.Drained)
}

func TestHandleReload(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	faultinject.Reset()
	defer faultinject.Reset()

	loaded := 0
	srv, ts := testServer(t, func(c *Config) {
		c.Loader = func(ctx context.Context, checkpoint string) (*core.Pipeline, error) {
			switch checkpoint {
			case "broken":
				return nil, errors.New("synthetic load failure")
			case "weightless":
				p, err := core.NewFromProvider(testCorpus(t), tinyConfig(1))
				return p, err
			default:
				loaded++
				return freshPipeline(t, 2), nil
			}
		}
	})

	// Happy path: health-checked cutover.
	resp, body := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Checkpoint: "ok"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d, body %s", resp.StatusCode, body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Swapped || rr.Snapshot != "reload-1" || rr.Previous != "boot-1" || !rr.Drained {
		t.Fatalf("reload response = %+v", rr)
	}
	if cur := srv.Snapshot(); cur.ID != "reload-1" || cur.Source != "ok" {
		t.Fatalf("current snapshot = %s/%s, want reload-1/ok", cur.ID, cur.Source)
	}

	// Loader failure: 503, old snapshot keeps serving.
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Checkpoint: "broken"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("broken reload status %d, want 503", resp.StatusCode)
	}
	// Candidate fails the health check (no weights): rejected before cutover.
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Checkpoint: "weightless"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("weightless reload status %d, want 503", resp.StatusCode)
	}
	// Armed swap-fail fault: rejected before the loader even runs.
	faultinject.Arm(faultinject.ServeSwapFail, "ok")
	before := loaded
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Checkpoint: "ok"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("faulted reload status %d, want 503", resp.StatusCode)
	}
	if loaded != before {
		t.Error("swap-fail fault still invoked the loader")
	}
	if cur := srv.Snapshot(); cur.ID != "reload-1" {
		t.Errorf("failed reloads moved the snapshot to %s", cur.ID)
	}

	// Generation still works on the surviving snapshot.
	resp, body = postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload generate status %d, body %s", resp.StatusCode, body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Snapshot != "reload-1" {
		t.Errorf("generate served from %s, want reload-1", gr.Snapshot)
	}
}

func TestHealthzAndTargetsAndShutdown(t *testing.T) {
	srv, ts := testServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzJSON
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Snapshot != "boot-1" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}

	resp, err = http.Get(ts.URL + "/v1/targets")
	if err != nil {
		t.Fatal(err)
	}
	var tj targetsJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tj.Targets) == 0 || len(tj.Modules) != len(corpus.Modules) || len(tj.Functions) == 0 {
		t.Fatalf("targets = %d targets / %d modules / %d functions", len(tj.Targets), len(tj.Modules), len(tj.Functions))
	}

	// Shutdown flips the server into draining: healthz 503, generate 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/generate", GenerateRequest{Target: "RISCV"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining generate status %d, want 503", resp.StatusCode)
	}
}
