package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vega/internal/core"
	"vega/internal/obs"
)

// ---- satellite: cold-start Retry-After ------------------------------------

// A scheduler that has never completed a job must still hand shed clients
// a concrete backoff: RetryAfter is clamped to at least one second before
// the duration EWMA has any samples.
func TestSchedulerRetryAfterColdStart(t *testing.T) {
	s := NewScheduler(1, 1, nil)
	defer s.Stop()
	if got := s.RetryAfter(); got < 1 {
		t.Errorf("cold-start RetryAfter() = %d, want >= 1", got)
	}
}

// writeError must never emit a 429 without a Retry-After header, even if
// a caller passes zero (the belt to the scheduler clamp's suspenders).
func TestWriteErrorAlwaysSetsRetryAfterOn429(t *testing.T) {
	s := &Server{m: newServeMetrics(nil)}
	rec := httptest.NewRecorder()
	s.writeError(rec, http.StatusTooManyRequests, "queue full", 0)
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	var ej errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &ej); err != nil || ej.RetryAfter < 1 {
		t.Errorf("429 body = %q (err %v), want retry_after_s >= 1", rec.Body.String(), err)
	}
	// Non-429s keep the caller's value (including none at all).
	rec = httptest.NewRecorder()
	s.writeError(rec, http.StatusServiceUnavailable, "draining", 0)
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("503 with retryAfter=0 got Retry-After %q, want none", got)
	}
}

// TestRetryAfterEmptyBacklogFloor is the regression test for the stale
// Retry-After estimate: with nothing waiting and nothing running, the
// duration EWMA learned from an earlier burst of heavy jobs is
// irrelevant, and a shed client must get the 1 s floor — not a
// multi-second backoff computed from history.
func TestRetryAfterEmptyBacklogFloor(t *testing.T) {
	s := NewScheduler(2, 4, nil)
	defer s.Stop()

	// Simulate a burst of 7-second jobs that finished a minute ago.
	s.avgJobBits.Store(math.Float64bits(7.0))
	s.lastDoneNS.Store(time.Now().Add(-time.Minute).UnixNano())

	if got := s.RetryAfter(); got != 1 {
		t.Errorf("RetryAfter with empty backlog = %d, want the 1 s floor", got)
	}
}

// TestRetryAfterDecaysWhileIdle pins the decay half: with a real backlog
// but a long-idle EWMA, the estimate must shrink toward the floor instead
// of quoting the stale average verbatim.
func TestRetryAfterDecaysWhileIdle(t *testing.T) {
	s := NewScheduler(1, 1, nil)
	defer s.Stop()

	started := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), func(context.Context) {
		close(started)
		<-release
	})
	<-started
	defer close(release)

	// An 8-second average whose last completion was three half-lives ago:
	// the effective average is 1 s, so backlog 1 (+1 headroom) over one
	// worker quotes ~2 s — not the stale ceil(2*8/1) = 16 s.
	s.avgJobBits.Store(math.Float64bits(8.0))
	s.lastDoneNS.Store(time.Now().Add(-3 * retryDecayHalfLife).UnixNano())

	got := s.RetryAfter()
	if got < 1 || got > 4 {
		t.Errorf("RetryAfter with 90s-idle EWMA = %d, want decayed estimate in [1,4]", got)
	}
}

// ---- satellite: encode errors are counted, not swallowed ------------------

func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	o := obs.New(nil)
	s := &Server{m: newServeMetrics(o)}
	rec := httptest.NewRecorder()
	// A channel value cannot marshal; before this PR the error vanished.
	s.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if got := s.m.encodeErrors.Value(); got != 1 {
		t.Errorf("serve.encode_errors = %v after failed encode, want 1", got)
	}
	// A healthy encode does not count.
	s.writeJSON(rec, http.StatusOK, map[string]int{"ok": 1})
	if got := s.m.encodeErrors.Value(); got != 1 {
		t.Errorf("serve.encode_errors = %v after clean encode, want still 1", got)
	}
}

// ---- degrade ladder: skip-repair rung -------------------------------------

func TestDegradeSkipRepairRung(t *testing.T) {
	d := DefaultDegradePolicy()

	// Below the rung: verify requests keep their repair rounds.
	opt, reasons, _ := d.Apply(core.GenOptions{Verify: true}, 0.5)
	if opt.SkipRepair {
		t.Errorf("pressure 0.5 skipped repair: reasons=%v", reasons)
	}

	// At the rung: verification stays on, repair rounds are dropped, and
	// the degradation is visible in the reasons.
	opt, reasons, _ = d.Apply(core.GenOptions{Verify: true}, 0.8)
	if !opt.SkipRepair || !opt.Verify {
		t.Errorf("pressure 0.8: opt=%+v, want Verify && SkipRepair", opt)
	}
	if !strings.Contains(strings.Join(reasons, " "), "repair rounds skipped") {
		t.Errorf("reasons = %v, want repair-skip reason", reasons)
	}

	// Non-verify requests have no repair to skip.
	opt, _, _ = d.Apply(core.GenOptions{}, 0.9)
	if opt.SkipRepair {
		t.Error("non-verify request got SkipRepair")
	}
}

// ---- degrade ladder: truncation marking ------------------------------------

// pressurize occupies one scheduler slot so admission-time pressure is
// nonzero, and returns the release func.
func pressurize(t *testing.T, s *Server) func() {
	t.Helper()
	started := make(chan struct{})
	release := make(chan struct{})
	go s.sched.Do(context.Background(), func(context.Context) {
		close(started)
		<-release
	})
	<-started
	var once bool
	return func() {
		if !once {
			once = true
			close(release)
		}
	}
}

// TestTruncationRungMarksOnlyWhenBound is the regression test for the
// misleading degraded:true: when pressure arms the MaxFunctions rung but
// the request is scoped below the cap, the cap never binds and the
// response must stay full-fidelity — no degraded flag, no header, no
// truncation reason.
func TestTruncationRungMarksOnlyWhenBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	srv, ts := testServer(t, func(c *Config) {
		// Armed at any nonzero pressure; the requests do not verify, so
		// only the truncation rung can fire.
		c.Policy = DegradePolicy{At: 0.1, TruncateFunctions: 16}
	})
	release := pressurize(t, srv)
	defer release()

	if p := srv.sched.Pressure(); p < 0.1 {
		t.Fatalf("pressure %v, want >= 0.1 while a slot is held", p)
	}
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Truncated {
		t.Fatalf("single-function request came back Truncated")
	}
	if gr.Degraded {
		t.Errorf("unbound truncation rung marked the response degraded: %v", gr.DegradeReasons)
	}
	if h := resp.Header.Get("X-Vega-Degraded"); h != "" {
		t.Errorf("X-Vega-Degraded = %q on a full-fidelity response", h)
	}

	// The binding case still marks everything: a whole-backend request
	// under the same pressure is cut to 16 functions.
	resp, body = postJSON(t, ts.URL+"/v1/generate", GenerateRequest{Target: "RISCV"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if !gr.Truncated || !gr.Degraded {
		t.Errorf("bound truncation: Truncated=%v Degraded=%v, want both", gr.Truncated, gr.Degraded)
	}
	if len(gr.Functions) != 16 {
		t.Errorf("got %d functions, want the rung's cap of 16", len(gr.Functions))
	}
	if resp.Header.Get("X-Vega-Degraded") != "true" {
		t.Error("bound truncation did not set X-Vega-Degraded")
	}
	if !strings.Contains(strings.Join(gr.DegradeReasons, " "), "maxFunctions") {
		t.Errorf("reasons %v missing the truncation rationale", gr.DegradeReasons)
	}
}

// TestMaxFunctionsBoundaryHeaders pins the request-level truncation
// boundary over HTTP: a cap equal to the scope's function count is not a
// truncation (no degraded marking), one below it is.
func TestMaxFunctionsBoundaryHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	_, ts := testServer(t, nil)

	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Module: "EMI"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var full GenerateResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	n := len(full.Functions)
	if n < 2 {
		t.Skipf("EMI has %d functions; boundary needs >= 2", n)
	}

	resp, body = postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Module: "EMI", MaxFunctions: n})
	var exact GenerateResponse
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Truncated || exact.Degraded {
		t.Errorf("cap == count: Truncated=%v Degraded=%v, want neither", exact.Truncated, exact.Degraded)
	}
	if h := resp.Header.Get("X-Vega-Degraded"); h != "" {
		t.Errorf("cap == count set X-Vega-Degraded = %q", h)
	}

	resp, body = postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Module: "EMI", MaxFunctions: n - 1})
	var under GenerateResponse
	if err := json.Unmarshal(body, &under); err != nil {
		t.Fatal(err)
	}
	if !under.Truncated || !under.Degraded || len(under.Functions) != n-1 {
		t.Errorf("cap == count-1: Truncated=%v Degraded=%v functions=%d, want truncated %d",
			under.Truncated, under.Degraded, len(under.Functions), n-1)
	}
	if resp.Header.Get("X-Vega-Degraded") != "true" {
		t.Error("cap == count-1 did not set X-Vega-Degraded")
	}
}

// ---- verify-enabled generation over HTTP ----------------------------------

func TestHandleGenerateVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	_, ts := testServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType", Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(gr.Functions))
	}
	f := gr.Functions[0]
	switch f.Verify {
	case "passed", "repaired", "failed", "no-oracle":
	default:
		t.Errorf("verify status = %q, want one of passed/repaired/failed/no-oracle", f.Verify)
	}
	if f.Verify == "failed" && f.Counterexample == "" {
		t.Error("failed verification without a counterexample")
	}
	if gr.Verified+gr.RepairFailed == 0 && f.Verify != "no-oracle" {
		t.Errorf("response counters all zero for verified function: %+v", gr)
	}

	// The same request without verify carries no verification fields.
	resp, body = postJSON(t, ts.URL+"/v1/generate",
		GenerateRequest{Target: "RISCV", Function: "getRelocType"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain status %d, body %s", resp.StatusCode, body)
	}
	var plain GenerateResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if got := plain.Functions[0].Verify; got != "" {
		t.Errorf("plain request got verify status %q, want none", got)
	}
	if plain.Verified != 0 || plain.Repaired != 0 || plain.RepairFailed != 0 {
		t.Errorf("plain request got repair counters: %+v", plain)
	}
}
