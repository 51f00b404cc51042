package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/model"
	"vega/internal/obs"
)

// backendFingerprint serializes everything about a backend that must be
// invariant across decode path (cached/uncached) and worker count.
// Seconds is excluded: timings are the one legitimately nondeterministic
// output.
func backendFingerprint(b *generate.Backend) string {
	var sb strings.Builder
	for _, f := range b.Functions {
		sb.WriteString(functionFingerprint(f))
	}
	return sb.String()
}

func functionFingerprint(f *generate.Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%s\n", f.Name, f.Module, f.Target, f.Err)
	for _, s := range f.Statements {
		fmt.Fprintf(&sb, "  %d|%q|%v|%v|%v\n", s.Row, s.Text, s.Absent, s.Score, s.Formula)
	}
	return sb.String()
}

// referenceModel decodes with the reference full-prefix decoder: the same
// greedy and beam loops as the transformer, over model.ReferenceDecoder
// instead of the KV cache. It is not a *model.Transformer, so Stage 3
// skips the batch-encode pre-pass and decodes it row by row.
type referenceModel struct{ *model.Transformer }

func (r referenceModel) Generate(input []int, maxLen int) []int {
	return r.Greedy(r.NewReferenceDecoder(input), maxLen)
}

func (r referenceModel) BeamGenerate(input []int, maxLen, width int) []model.Beam {
	return r.Beam(r.NewReferenceDecoder(input), maxLen, width)
}

// TestParallelCachedMatchesSerialUncached is the PR's central differential
// test: the KV-cached incremental decoder running on an 8-worker pool must
// produce byte-identical backends to the reference full-prefix decoder
// running serially, in greedy and beam-search decoding modes.
func TestParallelCachedMatchesSerialUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	cached := p.Model.(*model.Transformer)
	for _, beam := range []int{1, 2} {
		p.Cfg.BeamWidth = beam

		p.Model = referenceModel{cached}
		p.Cfg.Workers = 1
		ref := p.GenerateBackend("RISCV")

		p.Model = cached
		p.Cfg.Workers = 8
		got := p.GenerateBackend("RISCV")

		if len(ref.Functions) == 0 {
			t.Fatalf("beam %d: reference backend is empty", beam)
		}
		if a, b := backendFingerprint(ref), backendFingerprint(got); a != b {
			t.Errorf("beam %d: parallel cached backend differs from serial uncached reference", beam)
		}
		if ref.Partial || got.Partial {
			t.Errorf("beam %d: unexpected Partial (ref=%v got=%v)", beam, ref.Partial, got.Partial)
		}
	}
}

// TestDecodePathCounters checks that gen.decode_path.* count decode loop
// runs: a greedy backend runs the greedy loop once per template row and
// never the beam loop, and a beam backend (no escalation) the reverse.
func TestDecodePathCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	for _, beam := range []int{1, 2} {
		p.Cfg.BeamWidth = beam
		p.gm = newGenMetrics(obs.New(nil))
		b := p.GenerateBackend("RISCV")
		rows := 0
		for _, f := range b.Functions {
			rows += len(f.Statements)
		}
		if rows == 0 {
			t.Fatalf("beam %d: backend decoded no rows", beam)
		}
		wantGreedy, wantBeam := rows, 0
		if beam > 1 {
			wantGreedy, wantBeam = 0, rows
		}
		if g, bm := p.gm.greedyRuns.Value(), p.gm.beamRuns.Value(); g != float64(wantGreedy) || bm != float64(wantBeam) {
			t.Errorf("beam %d over %d rows: decode_path greedy=%v beam=%v, want %d and %d",
				beam, rows, g, bm, wantGreedy, wantBeam)
		}
	}
}

// TestParallelWorkerCountInvariant checks output determinism across worker
// counts on the cached path, plus the per-module Seconds contract.
func TestParallelWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)

	p.Cfg.Workers = 1
	one := p.GenerateBackend("RISCV")
	p.Cfg.Workers = 8
	many := p.GenerateBackend("RISCV")

	if a, b := backendFingerprint(one), backendFingerprint(many); a != b {
		t.Error("backend differs between Workers=1 and Workers=8")
	}
	for _, b := range []*generate.Backend{one, many} {
		for _, m := range corpus.Modules {
			if _, ok := b.Seconds[string(m)]; !ok {
				t.Errorf("Seconds missing module %s", m)
			}
		}
	}
}

// countCtx is a context whose Err starts reporting Canceled after budget
// calls. The worker pool polls Err once per task, so this cancels the run
// mid-pool at a deterministic point without any timing dependence.
type countCtx struct {
	context.Context
	calls  atomic.Int64
	budget int64
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// TestParallelCancelMidPoolConsistent cancels mid-pool and checks the
// salvaged backend is consistent: Partial set, and every completed
// function an order-preserving, bit-identical subset of the full run.
func TestParallelCancelMidPoolConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.Cfg.Workers = 4
	full := p.GenerateBackend("RISCV")
	if len(full.Functions) < 10 {
		t.Fatalf("full run generated only %d functions", len(full.Functions))
	}

	ctx := &countCtx{Context: context.Background(), budget: 10}
	b := p.GenerateBackendContext(ctx, "RISCV")
	if !b.Partial {
		t.Error("canceled run not marked Partial")
	}
	if len(b.Functions) >= len(full.Functions) {
		t.Errorf("cancellation salvaged all %d functions; expected a strict subset", len(full.Functions))
	}

	// Order-preserving subset with identical content: every salvaged
	// function appears in the full run, in the same relative order.
	want := make([]string, len(full.Functions))
	for i, f := range full.Functions {
		want[i] = functionFingerprint(f)
	}
	j := 0
	for _, f := range b.Functions {
		fp := functionFingerprint(f)
		for j < len(want) && want[j] != fp {
			j++
		}
		if j == len(want) {
			t.Fatalf("salvaged function %s not found in full run (or out of order)", f.Name)
		}
		j++
	}
}
