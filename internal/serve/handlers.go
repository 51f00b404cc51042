package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/faultinject"
	"vega/internal/generate"
	"vega/internal/obs"
)

// GenerateRequest is the POST /v1/generate body. Scope narrows from whole
// backend (neither Module nor Function set) to one module to one
// function; the narrower the request, the cheaper it is to admit.
type GenerateRequest struct {
	// Target names the target whose .td description files (rendered into
	// the service's source tree) generation reads.
	Target string `json:"target"`
	// Module restricts generation to one module (SEL, REG, OPT, SCH,
	// EMI, ASS, DIS). Optional.
	Module string `json:"module,omitempty"`
	// Function restricts generation to one interface function. Optional.
	Function string `json:"function,omitempty"`
	// MaxFunctions caps how many functions are generated (0 =
	// unlimited, negative is rejected); the response is marked truncated
	// when the cap cuts the list. The degrade ladder may lower this
	// further under pressure.
	MaxFunctions int `json:"max_functions,omitempty"`
	// DeadlineMS overrides the server's default per-request deadline,
	// clamped to the configured maximum.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Verify turns on the verify-and-repair loop for this request: each
	// generated function is executed against the reference backend and
	// repaired from counterexamples on divergence. The response carries a
	// per-function verification status and repair-round count. Under
	// pressure >= the policy's At, repair rounds are skipped
	// (verification still runs) and the degradation is marked.
	Verify bool `json:"verify,omitempty"`
	// Quantize is accepted and ignored: every request decodes in
	// float32. The field stays so that clients which still send it get
	// the same 200 as before, and because perfbench's serve-mix workload
	// still sets it.
	Quantize bool `json:"quantize,omitempty"`
}

// StatementJSON is one generated statement with its confidence scores.
type StatementJSON struct {
	Row     int     `json:"row"`
	Text    string  `json:"text"`
	Absent  bool    `json:"absent,omitempty"`
	Score   float64 `json:"score"`
	Formula float64 `json:"formula"`
}

// FunctionJSON is one generated function with per-statement confidences.
type FunctionJSON struct {
	Name       string          `json:"name"`
	Module     string          `json:"module"`
	Confidence float64         `json:"confidence"`
	Failed     bool            `json:"failed,omitempty"`
	Error      string          `json:"error,omitempty"`
	Statements []StatementJSON `json:"statements"`
	// Verify is the verification status when the request asked for it:
	// "passed", "repaired", "failed", "no-oracle" (absent otherwise).
	Verify string `json:"verify,omitempty"`
	// RepairRounds counts CEGAR rounds run for this function.
	RepairRounds int `json:"repair_rounds,omitempty"`
	// Counterexample carries the minimal diverging input/outcome witness
	// for functions that verification could not repair.
	Counterexample string `json:"counterexample,omitempty"`
}

// GenerateResponse is the POST /v1/generate 200 body. Degraded is set
// whenever the response is anything less than full fidelity — a degrade
// rung fired, the task list was truncated, a function was salvaged from a
// panic, or the request-level panic boundary triggered — with the
// machine-readable reasons alongside.
type GenerateResponse struct {
	Target         string             `json:"target"`
	Snapshot       string             `json:"snapshot"`
	Degraded       bool               `json:"degraded"`
	DegradeReasons []string           `json:"degrade_reasons,omitempty"`
	Partial        bool               `json:"partial,omitempty"`
	Truncated      bool               `json:"truncated,omitempty"`
	Recovered      int                `json:"recovered,omitempty"`
	Verified       int                `json:"verified,omitempty"`
	Repaired       int                `json:"repaired,omitempty"`
	RepairFailed   int                `json:"repair_failed,omitempty"`
	Functions      []FunctionJSON     `json:"functions"`
	Seconds        map[string]float64 `json:"seconds,omitempty"`
}

// errorJSON is every non-200 body.
type errorJSON struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
	Partial    int    `json:"partial_functions,omitempty"`
}

// writeJSON writes a JSON response body. Encode errors (a client hanging
// up mid-body, a value that cannot marshal) used to be silently dropped,
// leaving truncated responses invisible; they now count in
// serve.encode_errors and log once per server.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.m.encodeErrors.Inc()
		s.encodeWarn.Do(func() {
			log.Printf("serve: response encode failed (truncated body): %v (counted in serve.encode_errors)", err)
		})
	}
}

// writeError writes a non-200 body. Every 429 carries a Retry-After
// header of at least one second — even at cold start, before any job has
// seeded the scheduler's duration EWMA — so shed clients always get a
// concrete backoff.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryAfter int) {
	if code == http.StatusTooManyRequests && retryAfter < 1 {
		retryAfter = 1
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.writeJSON(w, code, errorJSON{Error: msg, RetryAfter: retryAfter})
}

// genResult is the state the admitted job writes and the handler reads
// strictly after the done-channel close (or not at all on a deadline).
type genResult struct {
	backend  *generate.Backend
	panicked bool
	panicMsg string
}

// maxRequestBytes caps a request body. Generate and reload requests are a
// few names and numbers; a larger body is refused before it is decoded.
const maxRequestBytes = 64 << 10

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBytes. On failure it writes the error response (413 for an
// oversized body, 400 otherwise) and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes), 0)
	} else {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
	}
	return false
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	}
	s.m.requests.Inc()
	start := time.Now()

	var req GenerateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.MaxFunctions < 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("max_functions %d is negative", req.MaxFunctions), 0)
		return
	}

	// Pin one snapshot for the whole request, so a reload while the
	// request waits in the queue cannot split validation from generation.
	// The reference is released exactly once: by the job when it starts,
	// or on return here when the job never will (rejected, shed, expired
	// in the queue, or beaten by the deadline before a worker took it).
	snap, release := s.holder.Acquire()
	var claimed atomic.Bool
	defer func() {
		if claimed.CompareAndSwap(false, true) {
			release()
		}
	}()
	p := snap.Pipeline

	// Validate against the snapshot's actual fleet (which may be the
	// extended one), not the package-level standard target list.
	if p.FindTarget(req.Target) == nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown target %q", req.Target), 0)
		return
	}
	opt := core.GenOptions{MaxFunctions: req.MaxFunctions, Verify: req.Verify}
	if req.Module != "" {
		if !moduleListed(moduleNames(), req.Module) {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown module %q", req.Module), 0)
			return
		}
		opt.Modules = []string{req.Module}
	}
	if req.Function != "" {
		if p.GroupByName(req.Function) == nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown function %q", req.Function), 0)
			return
		}
		opt.Functions = []string{req.Function}
	}

	// Deadline: request override clamped to the configured max, default
	// otherwise. The override is clamped in milliseconds before it is
	// converted, since a huge deadline_ms would overflow time.Duration
	// into a negative deadline. The context reaches
	// GenerateBackendOptions, so a mid-generation expiry salvages
	// finished functions and returns.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		ms := min(int64(req.DeadlineMS), int64(s.cfg.MaxDeadline/time.Millisecond))
		deadline = time.Duration(ms) * time.Millisecond
	}
	deadline = min(deadline, s.cfg.MaxDeadline)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	ctx, span := obs.Start(obs.With(ctx, s.cfg.Obs), "serve/generate",
		obs.String("target", req.Target))
	defer span.End()

	// Admission. The fault point forces the shed path so 429 handling is
	// testable without actually filling the queue.
	if faultinject.Should(faultinject.ServeAdmitReject, req.Target) {
		s.writeError(w, http.StatusTooManyRequests, "admission rejected (faultinject)", s.sched.RetryAfter())
		return
	}

	// Degrade ladder, applied at admission pressure.
	opt, reasons, truncReason := s.cfg.Policy.Apply(opt, s.sched.Pressure())

	res := &genResult{}
	_, err := s.sched.Do(ctx, func(jctx context.Context) {
		if !claimed.CompareAndSwap(false, true) {
			return // the handler already answered and released snap
		}
		defer release()
		// Request-level panic boundary: anything that escapes the
		// per-function isolation inside GenerateBackendOptions (or the
		// armed serve-handler-panic fault) becomes a degraded 200, never
		// a 500 — the handler stays on the {200, 429, 504} contract.
		defer func() {
			if rec := recover(); rec != nil {
				res.panicked = true
				res.panicMsg = fmt.Sprint(rec)
				s.m.handlerPanics.Inc()
			}
		}()
		if faultinject.Should(faultinject.ServeHandlerPanic, req.Target) {
			panic("faultinject serve-handler-panic for " + req.Target)
		}
		res.backend = p.GenerateBackendOptions(jctx, req.Target, opt)
	})

	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeError(w, http.StatusTooManyRequests, "queue full", s.sched.RetryAfter())
		return
	case errors.Is(err, ErrStopped):
		s.writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	case err != nil:
		// Deadline or client cancellation won the wait; the job either
		// never ran or is finishing detached — res must not be read.
		s.m.deadlineHits.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded", 0)
		return
	}

	if res.panicked {
		resp := &GenerateResponse{
			Target:         req.Target,
			Snapshot:       snap.ID,
			Degraded:       true,
			DegradeReasons: append(reasons, "handler panic recovered: "+res.panicMsg),
			Functions:      []FunctionJSON{},
		}
		s.finishGenerate(w, resp, start)
		return
	}
	if ctx.Err() != nil {
		// The job completed its salvage (Partial backend) but the
		// request's deadline has passed: the contract says 504.
		s.m.deadlineHits.Inc()
		n := 0
		if res.backend != nil {
			n = len(res.backend.Functions)
		}
		s.writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: "deadline exceeded", Partial: n})
		return
	}

	resp := backendResponse(req.Target, res.backend, snap.ID, reasons, truncReason)
	s.finishGenerate(w, resp, start)
}

// finishGenerate stamps headers/metrics shared by every 200 path.
func (s *Server) finishGenerate(w http.ResponseWriter, resp *GenerateResponse, start time.Time) {
	if resp.Degraded {
		s.m.degraded.Inc()
		w.Header().Set("X-Vega-Degraded", "true")
	}
	s.m.requestSeconds.Observe(time.Since(start).Seconds())
	s.writeJSON(w, http.StatusOK, resp)
}

// backendResponse converts a generated backend into the wire form.
// truncReason is the degrade ladder's MaxFunctions rationale; it joins
// the degrade reasons only when the cap actually bound (b.Truncated) —
// lowering a cap a scoped request never reached degrades nothing.
func backendResponse(target string, b *generate.Backend, snapID string, reasons []string, truncReason string) *GenerateResponse {
	resp := &GenerateResponse{
		Target:         target,
		Snapshot:       snapID,
		DegradeReasons: reasons,
		Functions:      []FunctionJSON{},
	}
	if b == nil {
		resp.Degraded = true
		resp.DegradeReasons = append(resp.DegradeReasons, "no backend produced")
		return resp
	}
	resp.Partial = b.Partial
	resp.Truncated = b.Truncated
	resp.Recovered = b.Recovered
	resp.Verified = b.Verified
	resp.Repaired = b.Repaired
	resp.RepairFailed = b.RepairFailed
	resp.Seconds = b.Seconds
	for _, f := range b.Functions {
		fj := FunctionJSON{
			Name:       f.Name,
			Module:     f.Module,
			Confidence: f.Confidence(),
			Failed:     f.Failed(),
			Error:      f.Err,
			Statements: make([]StatementJSON, 0, len(f.Statements)),
		}
		if f.Verify != nil {
			fj.Verify = f.Verify.Status.String()
			fj.RepairRounds = f.Verify.Rounds
			fj.Counterexample = f.Verify.Counterexample
		}
		for _, st := range f.Statements {
			fj.Statements = append(fj.Statements, StatementJSON{
				Row: st.Row, Text: st.Text, Absent: st.Absent,
				Score: st.Score, Formula: st.Formula,
			})
		}
		resp.Functions = append(resp.Functions, fj)
	}
	if b.Truncated {
		if truncReason != "" {
			resp.DegradeReasons = append(resp.DegradeReasons, truncReason)
		}
		resp.DegradeReasons = append(resp.DegradeReasons, "function list truncated by maxFunctions")
	}
	if b.Recovered > 0 {
		resp.DegradeReasons = append(resp.DegradeReasons,
			fmt.Sprintf("%d function(s) recovered from panics at confidence 0", b.Recovered))
	}
	resp.Degraded = len(resp.DegradeReasons) > 0
	return resp
}

// ReloadRequest is the POST /admin/reload body.
type ReloadRequest struct {
	// Checkpoint is the path of the checkpoint to load into the
	// candidate snapshot.
	Checkpoint string `json:"checkpoint"`
}

// ReloadResponse reports the cutover.
type ReloadResponse struct {
	Swapped  bool   `json:"swapped"`
	Snapshot string `json:"snapshot,omitempty"`
	Previous string `json:"previous,omitempty"`
	Drained  bool   `json:"drained"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	if s.cfg.Loader == nil {
		s.writeError(w, http.StatusNotImplemented, "no snapshot loader configured", 0)
		return
	}
	var req ReloadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
	defer cancel()
	ctx, span := obs.Start(obs.With(ctx, s.cfg.Obs), "serve/reload",
		obs.String("checkpoint", req.Checkpoint))
	defer span.End()

	fail := func(err error) {
		s.m.swapFailures.Inc()
		s.writeJSON(w, http.StatusServiceUnavailable, ReloadResponse{
			Swapped: false,
			Error:   err.Error(),
		})
	}

	if faultinject.Should(faultinject.ServeSwapFail, req.Checkpoint) {
		fail(errors.New("faultinject serve-swap-fail: candidate rejected, old snapshot retained"))
		return
	}
	p, err := s.cfg.Loader(ctx, req.Checkpoint)
	if err != nil {
		fail(fmt.Errorf("load candidate: %w", err))
		return
	}
	cand := NewSnapshot(s.holder.NextID("reload"), req.Checkpoint, p)
	old, drained, err := s.swapIn(ctx, cand)
	if err != nil {
		s.writeJSON(w, http.StatusServiceUnavailable, ReloadResponse{Swapped: false, Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		Swapped:  true,
		Snapshot: cand.ID,
		Previous: old.ID,
		Drained:  drained,
	})
}

// healthzJSON is the GET /healthz body.
type healthzJSON struct {
	Status     string  `json:"status"`
	Snapshot   string  `json:"snapshot"`
	Source     string  `json:"source"`
	UptimeS    float64 `json:"uptime_s"`
	Pressure   float64 `json:"pressure"`
	RetryAfter int     `json:"retry_after_s"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.Current()
	body := healthzJSON{
		Status:     "ok",
		Snapshot:   snap.ID,
		Source:     snap.Source,
		UptimeS:    s.uptime().Seconds(),
		Pressure:   s.sched.Pressure(),
		RetryAfter: s.sched.RetryAfter(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, body)
}

// targetsJSON is the GET /v1/targets body: the request vocabulary.
type targetsJSON struct {
	Targets   []targetJSON `json:"targets"`
	Modules   []string     `json:"modules"`
	Functions []string     `json:"functions"`
}

type targetJSON struct {
	Name string `json:"name"`
	Eval bool   `json:"eval"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.Current()
	out := targetsJSON{Modules: moduleNames()}
	for _, t := range snap.Pipeline.TargetSpecs() {
		out.Targets = append(out.Targets, targetJSON{Name: t.Name, Eval: t.Eval})
	}
	for _, g := range snap.Pipeline.Groups {
		out.Functions = append(out.Functions, g.Func.Name)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// moduleNames lists the corpus modules as strings.
func moduleNames() []string {
	out := make([]string, len(corpus.Modules))
	for i, m := range corpus.Modules {
		out[i] = string(m)
	}
	return out
}

// moduleListed reports membership (the filter is never empty here).
func moduleListed(list []string, m string) bool {
	for _, x := range list {
		if x == m {
			return true
		}
	}
	return false
}
