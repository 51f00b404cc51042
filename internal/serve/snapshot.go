// Package serve turns the batch VEGA pipeline into a long-running
// backend-generation service: an immutable, hot-swappable Snapshot of
// weights + Stage 1 artifacts served through a bounded scheduler with
// admission control, per-request deadlines, and graceful degradation.
//
// The robustness contract, end to end:
//
//   - Every generate request terminates in exactly one of
//     200 / 200-degraded / 429 / 504 — never a 500, never a hang past
//     its deadline (enforced by the soak test).
//   - A snapshot swap never disturbs an admitted request: requests pin
//     the snapshot they were validated against (refcount) until they
//     finish, queued or running, the new snapshot is health-checked
//     before cutover, and the old one drains afterwards.
//   - Load beyond the admission queue's hard cap is shed immediately
//     with 429 + Retry-After instead of queuing unboundedly.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vega/internal/core"
	"vega/internal/model"
)

// Snapshot is one immutable serving unit: a fully built pipeline (Stage 1
// templates/features plus trained or loaded weights) and its identity.
// Requests pin the snapshot they were admitted under for their whole
// lifetime, so a concurrent swap can never pull state out from under a
// running generation.
type Snapshot struct {
	// ID identifies the snapshot in responses, logs, and metrics
	// ("boot-1", "reload-2", ...).
	ID string
	// Source records where the weights came from (checkpoint path or
	// "startup-train").
	Source string
	// LoadedAt is when the snapshot was installed or created.
	LoadedAt time.Time
	// Pipeline is the read-only pipeline; safe for concurrent
	// GenerateBackendOptions calls.
	Pipeline *core.Pipeline

	// refs counts the install reference (1) plus one per in-flight
	// request. It drops to 0 only after the snapshot is retired AND every
	// pinned request finished; drained closes at that moment.
	refs    atomic.Int64
	drained chan struct{}
}

// NewSnapshot wraps a pipeline as an installable snapshot.
func NewSnapshot(id, source string, p *core.Pipeline) *Snapshot {
	s := &Snapshot{
		ID:       id,
		Source:   source,
		LoadedAt: time.Now(),
		Pipeline: p,
		drained:  make(chan struct{}),
	}
	s.refs.Store(1) // the holder's install reference
	return s
}

// acquire takes a request reference; it fails only when the snapshot is
// already retired and fully drained (refs hit 0), which means a newer
// snapshot is installed and the caller must re-read the holder.
func (s *Snapshot) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the last drop closes drained.
func (s *Snapshot) release() {
	if s.refs.Add(-1) == 0 {
		close(s.drained)
	}
}

// Drained reports (without blocking) whether the snapshot is retired and
// no request still pins it.
func (s *Snapshot) Drained() bool {
	select {
	case <-s.drained:
		return true
	default:
		return false
	}
}

// HealthCheck validates the snapshot before it may serve: the pipeline
// must carry a model and vocabulary, the model must pass the decode smoke
// test (model.CheckDecode), and a one-function scoped generation must
// complete without tripping the panic boundary. It is the gate a hot
// reload runs before cutover, so a corrupt-but-parseable checkpoint is
// rejected while the old snapshot keeps serving.
func (s *Snapshot) HealthCheck(ctx context.Context, target string) error {
	p := s.Pipeline
	if p == nil || p.Model == nil || p.Vocab == nil {
		return fmt.Errorf("serve: snapshot %s: no trained model", s.ID)
	}
	if err := model.CheckDecode(p.Model, p.Vocab.Size(), p.Cfg.MaxOutPieces); err != nil {
		return fmt.Errorf("serve: snapshot %s: %w", s.ID, err)
	}
	if len(p.Groups) == 0 {
		return fmt.Errorf("serve: snapshot %s: no Stage 1 groups", s.ID)
	}
	smoke := p.Groups[0].Func.Name
	b := p.GenerateBackendOptions(ctx, target, core.GenOptions{
		Functions: []string{smoke}, MaxFunctions: 1,
	})
	if ctx.Err() != nil {
		return fmt.Errorf("serve: snapshot %s: health check canceled: %w", s.ID, ctx.Err())
	}
	if len(b.Functions) != 1 {
		return fmt.Errorf("serve: snapshot %s: smoke generation produced %d functions, want 1",
			s.ID, len(b.Functions))
	}
	if fn := b.Functions[0]; fn.Failed() {
		return fmt.Errorf("serve: snapshot %s: smoke generation of %s failed: %s", s.ID, smoke, fn.Err)
	}
	return nil
}

// Holder publishes the current snapshot through an atomic pointer and
// coordinates swaps. Reads (Acquire) are lock-free; swaps serialize among
// themselves only.
type Holder struct {
	cur    atomic.Pointer[Snapshot]
	swapMu sync.Mutex
	seq    atomic.Int64
}

// NewHolder installs the initial snapshot.
func NewHolder(s *Snapshot) *Holder {
	h := &Holder{}
	h.cur.Store(s)
	return h
}

// Current returns the published snapshot without pinning it — for status
// endpoints only; request paths must use Acquire.
func (h *Holder) Current() *Snapshot { return h.cur.Load() }

// NextID mints a monotonically increasing snapshot ID with the given
// prefix ("reload-3").
func (h *Holder) NextID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, h.seq.Add(1))
}

// Acquire pins the current snapshot for one request and returns it with
// its release function. The retry loop covers the benign race where a
// swap retires the snapshot between the pointer load and the refcount
// increment: the new snapshot is installed before the old one is
// released, so the loop always terminates.
func (h *Holder) Acquire() (*Snapshot, func()) {
	for {
		s := h.cur.Load()
		if s.acquire() {
			return s, func() { s.release() }
		}
	}
}

// Swap installs next and retires the previous snapshot, then waits up to
// drainTimeout for in-flight requests pinned to the old snapshot to
// finish (they keep running against the old weights — the swap never
// cancels or fails them). It reports the retired snapshot and whether the
// drain completed within the timeout; a drain still in progress is
// harmless — stragglers finish on the old snapshot and release it.
func (h *Holder) Swap(next *Snapshot, drainTimeout time.Duration) (old *Snapshot, drained bool) {
	h.swapMu.Lock()
	old = h.cur.Load()
	h.cur.Store(next)
	old.release() // drop the install reference; in-flight refs remain
	h.swapMu.Unlock()

	if drainTimeout <= 0 {
		return old, old.Drained()
	}
	select {
	case <-old.drained:
		return old, true
	case <-time.After(drainTimeout):
		return old, false
	}
}
