package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/obs"
	"vega/internal/serve"
)

// mixPeriods is how many request periods the sequence holds; clients walk
// it in order and wrap around, which no run reaches.
const mixPeriods = 1000

// requestMix draws the serve-mix request sequence from the seed. It is
// built from periods of 70 requests, each shuffled on its own:
//
//   - 21 single-module requests, one per (module, target) pair; each
//     module is verified on one target, a different one in each of three
//     consecutive periods;
//   - 49 single-function requests: the interface functions in a seeded
//     order (45 on the standard fleet) topped up with random draws, on
//     targets dealt in turn; every third block of three verified;
//   - half of all requests, drawn from the seed, quantized.
//
// That is 70% function and 30% module scope, a third verified, and the
// targets evenly spread. Stratifying each period, rather than drawing
// every request independently, keeps the share of the expensive
// requests, and so the latency distribution and the verified share, the
// same from seed to seed within a run of a few hundred requests; the
// seed decides which function meets which target and options, and the
// order.
func requestMix(seed int64, funcs []string) []serve.GenerateRequest {
	rng := rand.New(rand.NewSource(seed))
	var mix []serve.GenerateRequest
	for p := 0; p < mixPeriods; p++ {
		var period []serve.GenerateRequest
		nt := len(evalTargets)
		for mi, m := range corpus.Modules {
			for ti, t := range evalTargets {
				period = append(period, serve.GenerateRequest{Target: t, Module: string(m), Verify: ti == (mi+p)%nt})
			}
		}
		const functionRequests = 49
		order := rng.Perm(len(funcs))
		for len(order) < functionRequests {
			order = append(order, rng.Intn(len(funcs)))
		}
		for i, fi := range order[:functionRequests] {
			period = append(period, serve.GenerateRequest{Target: evalTargets[(i+p)%nt],
				Function: funcs[fi], Verify: (i/nt)%nt == p%nt})
		}
		for i, qi := range rng.Perm(len(period)) {
			period[qi].Quantize = i%2 == p%2
		}
		rng.Shuffle(len(period), func(i, j int) { period[i], period[j] = period[j], period[i] })
		mix = append(mix, period...)
	}
	return mix
}

// served is one completed request.
type served struct {
	req     serve.GenerateRequest
	status  int
	body    []byte
	latency float64 // seconds, as the client saw it
}

type servePhase struct {
	done []served
	wall time.Duration
	cpu  time.Duration // process CPU time over the phase
	// allocMB is what the Go heap allocated over the phase.
	allocMB float64
	// clientTime sums, over the clients, the time from the phase's start
	// to each client's last reply.
	clientTime time.Duration
}

func (ph *servePhase) latencies(keep func(serve.GenerateRequest) bool) []float64 {
	var out []float64
	for _, s := range ph.done {
		if keep == nil || keep(s.req) {
			out = append(out, s.latency)
		}
	}
	return out
}

type serveInstance struct {
	srv *serve.Server
	p   *core.Pipeline
}

// runServeMix drives an in-process serve.Server, configured as
// vega-serve's defaults, through its HTTP handler with one closed-loop
// client per server worker: each client sends its next request when the
// previous reply arrives.
func runServeMix(r *runner) error {
	pr, err := prepare(r)
	if err != nil {
		return err
	}
	build := func(o *obs.Obs, tp *timedProvider) (*serveInstance, error) {
		cfg := benchConfig()
		cfg.Obs = o
		p, err := standardPipeline(cfg, tp)
		if err != nil {
			return nil, err
		}
		if err := p.Load(pr.checkpoint); err != nil {
			return nil, err
		}
		snap := serve.NewSnapshot("bench-1", pr.checkpoint, p)
		if err := snap.HealthCheck(context.Background(), "RISCV"); err != nil {
			return nil, err
		}
		srv := serve.New(serve.Config{
			Workers:         serveWorkers,
			QueueCap:        64,
			DefaultDeadline: 60 * time.Second,
			MaxDeadline:     5 * time.Minute,
			DrainTimeout:    30 * time.Second,
			Policy:          serve.DefaultDegradePolicy(),
			HealthTarget:    "RISCV",
			Obs:             o,
		}, snap)
		return &serveInstance{srv: srv, p: p}, nil
	}
	stop := func(in *serveInstance) {
		if in != nil {
			_ = in.srv.Shutdown(context.Background()) // no listener; stops the scheduler
		}
	}
	in, err := timeSetup(r, func() (*serveInstance, error) { return build(nil, nil) }, stop)
	if err != nil {
		return err
	}
	defer stop(in)
	var funcs []string
	for _, g := range in.p.Groups {
		funcs = append(funcs, g.Func.Name)
	}
	modules := map[string]string{}
	for _, g := range in.p.Groups {
		modules[g.Func.Name] = g.FT.Module
	}
	mix := requestMix(r.seed, funcs)
	var next atomic.Int64
	budget := time.Duration(r.seconds * float64(time.Second))

	if !r.trace {
		ph := driveServer(in.srv.Handler(), mix, &next, budget)
		verified, inVerify := checkServed(r, ph, pr, modules)
		lat := scaled(ph.latencies(nil), 1000)
		r.e2e["op_cpu_ms"] = 1000 * ph.cpu.Seconds() / float64(len(ph.done))
		r.e2e["op_alloc_mb"] = ph.allocMB / float64(len(ph.done))
		r.e2e["quality_pct"] = 100 * ratio(float64(verified), float64(inVerify))
		r.timing("serve_ms", "ms", lat)
		r.note("%-28s %.4g ms", "serve_mean_ms", mean(lat))
		r.note("%-28s %.4g ms", "serve_cpu_ms_per_request", 1000*ph.cpu.Seconds()/float64(len(ph.done)))
		r.note("%-28s %.4g ms", "serve_p50_ms", median(lat))
		r.note("%-28s %.4g ms", "serve_p99_ms", percentile(lat, 99))
		r.note("%-28s %.4g 1/s", "serve_rps", float64(len(ph.done))/ph.wall.Seconds())
		r.note("%-28s %.2f %%  (%d/%d functions)", "verified_pct", r.e2e["quality_pct"], verified, inVerify)
		return nil
	}

	base := driveServer(in.srv.Handler(), mix, &next, budget/3)
	checkServed(r, base, pr, modules)
	tr, tp := newTracer(), &timedProvider{}
	tin, err := build(tr.o, tp)
	if err != nil {
		return err
	}
	defer stop(tin)
	tp.snapshot() // count the corpus layer from here on: the request path

	m0 := memNow()
	ph := driveServer(tin.srv.Handler(), mix, &next, 2*budget/3)
	lat := scaled(ph.latencies(nil), 1000)
	jobs := scaled(tr.childSpans("stage3/generate", "serve/generate"), 1000)
	r.layer["serve.queue_wait_ms.p50"] = 1000 * tr.quantile("serve.queue_wait_seconds", 0.5)
	r.layer["serve.queue_wait_ms.p99"] = 1000 * tr.quantile("serve.queue_wait_seconds", 0.99)
	r.layer["serve.job_ms.p50"] = median(jobs)
	r.layer["serve.job_ms.p99"] = percentile(jobs, 99)
	r.layer["serve.overhead_ms.mean"] = mean(lat) - mean(jobs)
	r.layer["serve.latency_ms.p99"] = percentile(lat, 99)
	for name, keep := range map[string]func(serve.GenerateRequest) bool{
		"function": func(q serve.GenerateRequest) bool { return q.Function != "" },
		"module":   func(q serve.GenerateRequest) bool { return q.Module != "" },
		"verify":   func(q serve.GenerateRequest) bool { return q.Verify },
		"quantize": func(q serve.GenerateRequest) bool { return q.Quantize },
		"float32":  func(q serve.GenerateRequest) bool { return !q.Quantize },
	} {
		r.layer["serve.latency_ms."+name+".p50"] = 1000 * median(ph.latencies(keep))
		r.layer["serve.latency_ms."+name+".mean"] = 1000 * mean(ph.latencies(keep))
	}
	r.layer["serve.rejected"] = tr.value("serve.rejected")
	r.layer["serve.deadline_hits"] = tr.value("serve.deadline_hits")
	r.layer["serve.degraded"] = tr.value("serve.degraded")
	_, _, ref := tp.snapshot()
	r.layer["corpus.reference_backend_s"] = ref.Seconds()
	stage3Layers(r, tr)
	repairLayers(r, tr)
	// Closed loop: a client is always waiting on a request until it
	// stops, so the requests' latencies account for the clients' time.
	phaseLayers(r, m0, median(lat), 1000*median(base.latencies(nil)), sum(lat)/1000, ph.clientTime.Seconds())
	checkServed(r, ph, pr, modules)
	if err := modelProbes(r, tin.p); err != nil {
		return err
	}
	return tr.writeSpans(r, "serve-mix")
}

// serveWorkers is vega-serve's default worker pool size. The benchmark
// runs as many clients, so the admission queue never fills and the
// degrade ladder never fires, on any number of CPUs.
const serveWorkers = 2

// driveServer runs one closed-loop client per server worker against h
// until budget has elapsed, each taking the next request of the shared
// sequence, and waits for all of them.
func driveServer(h http.Handler, mix []serve.GenerateRequest, next *atomic.Int64, budget time.Duration) *servePhase {
	ph := &servePhase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start, cpu0, alloc0 := time.Now(), cpuTime(), allocBytes()
	for c := 0; c < serveWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < budget; first = false {
				req := mix[int(next.Add(1)-1)%len(mix)]
				t0 := time.Now()
				body, _ := json.Marshal(req) // a struct of strings and bools
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
				s := served{req: req, status: rec.Code, body: rec.Body.Bytes(), latency: time.Since(t0).Seconds()}
				mu.Lock()
				ph.done = append(ph.done, s)
				mu.Unlock()
			}
			mu.Lock()
			ph.clientTime += time.Since(start)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.allocMB = float64(allocBytes()-alloc0) / (1 << 20)
	return ph
}

// checkServed accounts every request of a phase: a non-200, a degraded
// response or one whose functions differ from the prepared offline
// float32 output counts as failed. It returns the verified (passed or
// repaired) and total function counts over verify requests.
func checkServed(r *runner, ph *servePhase, pr *prepared, modules map[string]string) (verified, inVerify int) {
	for _, s := range ph.done {
		r.attempted++
		if s.status != http.StatusOK {
			r.failed++
			r.fail("%s: status %d: %s", describe(s.req), s.status, bytes.TrimSpace(s.body))
			continue
		}
		var resp serve.GenerateResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			r.failed++
			r.fail("%s: undecodable response: %v", describe(s.req), err)
			continue
		}
		ref := pr.refs[refKey(s.req.Target, s.req.Verify)]
		want := 1
		if s.req.Module != "" {
			want = 0
			for _, m := range modules {
				if m == s.req.Module {
					want++
				}
			}
		}
		ok := !resp.Degraded && len(resp.Functions) == want
		for _, f := range resp.Functions {
			inScope := f.Name == s.req.Function || (s.req.Module != "" && modules[f.Name] == s.req.Module)
			if !inScope || wireJSON(f) != ref[f.Name] {
				ok = false
			}
		}
		if !ok {
			r.failed++
			r.fail("%s: response differs from the offline float32 output (degraded=%v, %d functions, want %d)",
				describe(s.req), resp.Degraded, len(resp.Functions), want)
			continue
		}
		if s.req.Verify {
			verified += resp.Verified
			inVerify += len(resp.Functions)
		}
	}
	return verified, inVerify
}

func describe(q serve.GenerateRequest) string {
	scope := q.Function
	if q.Module != "" {
		scope = "module " + q.Module
	}
	return q.Target + " " + scope
}
