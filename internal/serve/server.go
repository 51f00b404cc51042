package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vega/internal/core"
	"vega/internal/obs"
)

// SnapshotLoader builds a candidate pipeline for a hot reload: a fresh
// Stage 1 build over the service's corpus plus the checkpoint's weights.
// It runs outside the request worker pool (reloads are admin traffic) and
// its result is health-checked before cutover.
type SnapshotLoader func(ctx context.Context, checkpoint string) (*core.Pipeline, error)

// Config sizes the service.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8080").
	Addr string
	// Workers is the generation worker pool size (how many requests
	// decode concurrently); min 1.
	Workers int
	// QueueCap is the admission queue's hard cap; a request arriving with
	// QueueCap waiters is shed with 429. Min 1.
	QueueCap int
	// DefaultDeadline applies when a request names none; MaxDeadline
	// clamps what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DrainTimeout bounds how long a swap (and Shutdown) waits for
	// in-flight requests pinned to the old snapshot.
	DrainTimeout time.Duration
	// Policy is the degradation ladder; the zero value disables every
	// rung (use DefaultDegradePolicy for the documented defaults).
	Policy DegradePolicy
	// HealthTarget is the target used for swap health-check smoke
	// generations (default "RISCV").
	HealthTarget string
	// Loader enables POST /admin/reload; nil returns 501 there.
	Loader SnapshotLoader
	// ReloadTimeout bounds one reload's pipeline build + health check
	// (default 5m).
	ReloadTimeout time.Duration
	// Obs receives serve spans and metrics; nil disables (inert no-ops).
	Obs *obs.Obs
}

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueCap < 1 {
		c.QueueCap = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.HealthTarget == "" {
		c.HealthTarget = "RISCV"
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 5 * time.Minute
	}
}

// serveMetrics caches the request-path instruments.
type serveMetrics struct {
	requests       *obs.Counter   // serve.requests: generate requests received
	deadlineHits   *obs.Counter   // serve.deadline_hits: requests answered 504
	degraded       *obs.Counter   // serve.degraded: 200s carrying a degradation marker
	handlerPanics  *obs.Counter   // serve.handler_panics: request-level panics recovered
	swaps          *obs.Counter   // serve.swaps: successful snapshot cutovers
	swapFailures   *obs.Counter   // serve.swap_failures: reloads rejected before cutover
	swapDrainMiss  *obs.Counter   // serve.swap_drain_timeouts: drains that outlived DrainTimeout
	encodeErrors   *obs.Counter   // serve.encode_errors: response bodies that failed to encode
	requestSeconds *obs.Histogram // serve.request_seconds: admission → response
}

func newServeMetrics(o *obs.Obs) serveMetrics {
	return serveMetrics{
		requests:       o.Counter("serve.requests"),
		deadlineHits:   o.Counter("serve.deadline_hits"),
		degraded:       o.Counter("serve.degraded"),
		handlerPanics:  o.Counter("serve.handler_panics"),
		swaps:          o.Counter("serve.swaps"),
		swapFailures:   o.Counter("serve.swap_failures"),
		swapDrainMiss:  o.Counter("serve.swap_drain_timeouts"),
		encodeErrors:   o.Counter("serve.encode_errors"),
		requestSeconds: o.Histogram("serve.request_seconds"),
	}
}

// Server is the backend-generation service: one snapshot holder, one
// scheduler, and the HTTP surface over them.
type Server struct {
	cfg       Config
	holder    *Holder
	sched     *Scheduler
	m         serveMetrics
	startedAt time.Time

	httpSrv    *http.Server
	draining   atomic.Bool
	encodeWarn sync.Once
}

// New wires a server around the initial snapshot. The snapshot is
// installed as-is (the caller health-checks boot snapshots; reloads are
// health-checked here).
func New(cfg Config, snap *Snapshot) *Server {
	cfg.fillDefaults()
	return &Server{
		cfg:       cfg,
		holder:    NewHolder(snap),
		sched:     NewScheduler(cfg.Workers, cfg.QueueCap, cfg.Obs),
		m:         newServeMetrics(cfg.Obs),
		startedAt: time.Now(),
	}
}

// Handler returns the service's HTTP surface — also what the in-process
// tests drive through net/http/httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/targets", s.handleTargets)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// ListenAndServe serves until Shutdown; it returns http.ErrServerClosed
// on a clean drain, like net/http.
func (s *Server) ListenAndServe() error {
	s.httpSrv = &http.Server{Addr: s.cfg.Addr, Handler: s.Handler()}
	return s.httpSrv.ListenAndServe()
}

// Shutdown is the SIGTERM path: stop accepting connections, drain
// in-flight HTTP handlers (bounded by ctx), drain the scheduler, and
// flush the metrics sink. The current snapshot stays valid throughout, so
// a caller can still checkpoint it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.sched.Stop()
	s.cfg.Obs.Flush()
	return err
}

// Snapshot returns the currently published snapshot (for status and for
// checkpoint-on-exit).
func (s *Server) Snapshot() *Snapshot { return s.holder.Current() }

// Scheduler exposes the scheduler for tests and status reporting.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// swapIn health-checks cand against the configured target and, on
// success, cuts over to it and drains the old snapshot. It is the shared
// core of /admin/reload, factored so tests can drive swaps without HTTP.
func (s *Server) swapIn(ctx context.Context, cand *Snapshot) (old *Snapshot, drained bool, err error) {
	if err := cand.HealthCheck(ctx, s.cfg.HealthTarget); err != nil {
		s.m.swapFailures.Inc()
		return nil, false, err
	}
	old, drained = s.holder.Swap(cand, s.cfg.DrainTimeout)
	s.m.swaps.Inc()
	if !drained {
		s.m.swapDrainMiss.Inc()
	}
	s.cfg.Obs.Gauge("serve.snapshot_loaded_unix").Set(float64(cand.LoadedAt.Unix()))
	return old, drained, nil
}

// uptime is factored for the healthz payload.
func (s *Server) uptime() time.Duration { return time.Since(s.startedAt) }

// String implements a terse operator description.
func (s *Server) String() string {
	return fmt.Sprintf("vega-serve{workers=%d queue=%d snapshot=%s}",
		s.cfg.Workers, s.cfg.QueueCap, s.holder.Current().ID)
}
