// Package vega is a complete, self-contained reproduction of "VEGA:
// Automatically Generating Compiler Backends using a Pre-trained
// Transformer Model" (CGO 2025).
//
// VEGA generates LLVM-style compiler backends for new targets from their
// target description files alone. It abstracts the target-specific
// implementations of each standard compiler interface function into a
// function template of common code plus placeholders, mines Boolean
// target-independent and string target-dependent properties for every
// statement, fine-tunes a transformer to emit target-specific statements
// from those feature vectors, and annotates everything it generates with
// confidence scores.
//
// The top-level API wraps the pipeline end to end:
//
//	c := vega.BuildCorpus()
//	p, _ := vega.NewPipeline(c, vega.DefaultConfig())
//	res, _ := p.Train()
//	backend := p.GenerateBackend("RISCV")
//	report, _ := p.Evaluate(backend)
//
// Training and generation honor context cancellation and survive bad
// states — use p.TrainContext / p.GenerateBackendOptions for deadlines,
// and see DESIGN.md's "Failure modes & recovery" for the panic
// isolation, checkpoint checksumming, and NaN-retry behaviour.
//
// Subsystems live under internal/: the C++-subset frontend (cpp), the
// mini TableGen (tablegen), token-LCS statement alignment standing in for
// GumTree (align), templatization (template), feature selection
// (feature), the from-scratch transformer stack (model), the synthetic
// backend corpus (corpus), the regression interpreter (interp), evaluation
// (eval), the fork-flow baseline (forkflow), and the Fig. 10 substrate
// (compiler, sim, bench).
// DESIGN.md maps every paper experiment to its module and bench target.
package vega

import (
	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/eval"
	"vega/internal/generate"
)

// Config sizes the pipeline; see DefaultConfig.
type Config = core.Config

// Pipeline is the VEGA pipeline: pre-processing through Stage 3.
type Pipeline = core.Pipeline

// Backend is a generated backend with per-statement confidence scores.
type Backend = generate.Backend

// Function is one generated interface function.
type Function = generate.Function

// Report is the pass@1 evaluation of a generated backend, as returned by
// Pipeline.Evaluate.
type Report = eval.BackendEval

// TrainResult summarizes Stage 2.
type TrainResult = core.TrainResult

// DefaultConfig returns single-core-friendly pipeline settings.
func DefaultConfig() Config { return core.DefaultConfig() }

// BuildCorpus returns the standard fleet: the training targets and the
// three held-out evaluation targets (RISCV, RI5CY, XCore). Description
// files are rendered up front; function groups and reference backends are
// rendered on demand, so memory stays bounded by one group regardless of
// fleet size. Any fleet from corpus.Fleet streams the same way through
// corpus.NewStream.
func BuildCorpus() *corpus.Stream { return corpus.NewStream(corpus.Targets()) }

// NewPipeline runs Stage 1 (templatization + feature selection) over a
// corpus provider.
func NewPipeline(pr corpus.Provider, cfg Config) (*Pipeline, error) {
	return core.NewFromProvider(pr, cfg)
}

// EvalTargets lists the held-out targets, in the paper's order.
func EvalTargets() []string { return []string{"RISCV", "RI5CY", "XCore"} }
