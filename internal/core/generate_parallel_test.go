package core

import (
	"context"
	"fmt"
	"runtime"
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
// greedy loop as the transformer, over model.ReferenceDecoder instead of
// the KV cache. It is not a *model.Transformer, so Stage 3 takes its
// Model.Generate branch, which encodes each row on its own instead of
// batch-encoding the function's rows.
type referenceModel struct{ *model.Transformer }

func (r referenceModel) Generate(input []int, maxLen int) []int {
	return r.Greedy(r.NewReferenceDecoder(input), maxLen)
}

// TestParallelCachedMatchesSerialUncached is the central decode
// differential test: the KV-cached incremental decoder running on an
// GOMAXPROCS-8 pool must produce byte-identical backends to the reference
// full-prefix decoder at GOMAXPROCS 1. The verify case also routes the
// generated functions through verification and repair; it is scoped to
// a few functions to keep the reference decode short.
func TestParallelCachedMatchesSerialUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	cached := p.Model.(*model.Transformer)
	ctx := context.Background()
	verifyFns := []string{"getSetCCResultType", "getUncondBranchOpcode",
		"getStackAlignment", "decodeSImmOperand", "getCalleeSavedRegs"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, opt := range []GenOptions{{}, {Verify: true, Functions: verifyFns}} {
		name := fmt.Sprintf("verify=%v", opt.Verify)

		p.Model = referenceModel{cached}
		runtime.GOMAXPROCS(1)
		ref := p.GenerateBackendOptions(ctx, "RISCV", opt)

		p.Model = cached
		runtime.GOMAXPROCS(8)
		got := p.GenerateBackendOptions(ctx, "RISCV", opt)

		if len(ref.Functions) == 0 {
			t.Fatalf("%s: reference backend is empty", name)
		}
		if a, b := verifyFingerprint(ref), verifyFingerprint(got); a != b {
			t.Errorf("%s: parallel cached backend differs from serial uncached reference", name)
		}
		if ref.Partial || got.Partial {
			t.Errorf("%s: unexpected Partial (ref=%v got=%v)", name, ref.Partial, got.Partial)
		}
		if opt.Verify && ref.Repaired+ref.RepairFailed == 0 {
			t.Errorf("%s: no function reached a repair round", name)
		}
	}
}

// TestDecodePathCounters checks that gen.decode_path.greedy counts
// decode loop runs: a float32 backend runs the greedy loop exactly once
// per template row.
func TestDecodePathCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.gm = newGenMetrics(obs.New(nil))
	b := p.GenerateBackend("RISCV")
	rows := 0
	for _, f := range b.Functions {
		rows += len(f.Statements)
	}
	if rows == 0 {
		t.Fatal("backend decoded no rows")
	}
	if g := p.gm.greedyRuns.Value(); g != float64(rows) {
		t.Errorf("decode_path greedy = %v over %d rows, want one run per row", g, rows)
	}
}

// TestParallelWorkerCountInvariant checks output determinism across worker
// counts on the cached path, plus the per-module Seconds contract and
// Wall: one worker runs the functions back to back inside the pool's
// wall clock, so their summed Seconds cannot exceed it.
func TestParallelWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := p.GenerateBackend("RISCV")
	runtime.GOMAXPROCS(8)
	many := p.GenerateBackend("RISCV")

	if a, b := backendFingerprint(one), backendFingerprint(many); a != b {
		t.Error("backend differs between GOMAXPROCS 1 and 8")
	}
	for _, b := range []*generate.Backend{one, many} {
		for _, m := range corpus.Modules {
			if _, ok := b.Seconds[string(m)]; !ok {
				t.Errorf("Seconds missing module %s", m)
			}
		}
		if b.Wall <= 0 {
			t.Errorf("Wall = %v, want the pool's wall clock", b.Wall)
		}
	}
	sum := 0.0
	for _, sec := range one.Seconds {
		sum += sec
	}
	if sum > one.Wall {
		t.Errorf("one worker: summed Seconds %.6f exceed Wall %.6f", sum, one.Wall)
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
