package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vega/internal/core"
)

// TestConcurrentGenerateAcrossSwap is the serving-layer differential test
// (run under -race by `make check`): many overlapping
// GenerateBackendContext-path calls share one snapshot while a swap
// retires it mid-flight. Every request must complete (zero dropped),
// every output must be byte-identical to a serial reference run, and the
// old snapshot must drain exactly when its last request releases.
//
// Snapshot b rebuilds the same seed, mirroring a reload of the same
// checkpoint, so the byte-identity contract spans the cutover. (Untrained
// weights cannot differentiate outputs here — decode falls back to the
// deterministic template/formula path — so pinning is asserted via
// snapshot IDs rather than bytes.)
func TestConcurrentGenerateAcrossSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	pA := testPipeline(t, 1)
	pB := freshPipeline(t, 1)

	ctx := context.Background()
	opt := core.GenOptions{Modules: []string{"EMI"}}
	ref := fingerprint(pA.GenerateBackendOptions(ctx, "RISCV", opt))
	if ref == "" {
		t.Fatal("serial reference run produced no output")
	}

	a := NewSnapshot("a", "test", pA)
	b := NewSnapshot("b", "test", pB)
	h := NewHolder(a)

	const n = 8
	var (
		acquired atomic.Int64
		ids      [n]string
		outs     [n]string
		wg       sync.WaitGroup
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			snap, release := h.Acquire()
			defer release()
			acquired.Add(1)
			ids[i] = snap.ID
			outs[i] = fingerprint(snap.Pipeline.GenerateBackendOptions(ctx, "RISCV", opt))
		}(i)
	}
	close(start)

	// Swap once at least two requests hold the old snapshot, so the drain
	// genuinely waits on in-flight work.
	waitFor(t, func() bool { return acquired.Load() >= 2 })
	old, drained := h.Swap(b, 30*time.Second)
	if old != a {
		t.Fatalf("Swap retired %s, want a", old.ID)
	}
	wg.Wait()

	if !drained && !a.Drained() {
		t.Error("old snapshot never drained after all requests finished")
	}
	if h.Current() != b {
		t.Error("current snapshot is not b after swap")
	}
	for i := 0; i < n; i++ {
		if outs[i] == "" {
			t.Fatalf("request %d dropped (empty output)", i)
		}
		if ids[i] != "a" && ids[i] != "b" {
			t.Fatalf("request %d pinned unknown snapshot %q", i, ids[i])
		}
		if outs[i] != ref {
			t.Errorf("request %d (snapshot %s): output differs from the serial reference", i, ids[i])
		}
	}

	// A post-swap request must see the new snapshot and the same bytes.
	snap, release := h.Acquire()
	defer release()
	if snap != b {
		t.Fatalf("post-swap Acquire() = %s, want b", snap.ID)
	}
	if got := fingerprint(snap.Pipeline.GenerateBackendOptions(ctx, "RISCV", opt)); got != ref {
		t.Error("post-swap output differs from the serial reference")
	}
}
