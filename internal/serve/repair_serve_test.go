package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
