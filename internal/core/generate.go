package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vega/internal/corpus"
	"vega/internal/faultinject"
	"vega/internal/feature"
	"vega/internal/generate"
	"vega/internal/model"
	"vega/internal/obs"
	"vega/internal/repair"
	"vega/internal/template"
)

func joinTokens(toks []string) string { return template.JoinTokens(toks) }

// genMetrics caches the Stage 3 instruments once per pipeline so the
// per-row decode path never touches the metric registry's lock. Every
// field is nil — and therefore a no-cost no-op — when no observer is
// installed.
type genMetrics struct {
	functions     *obs.Counter   // gen.functions: interface functions decoded
	decodeSeconds *obs.Histogram // gen.decode_seconds: per-function resolve + encode + decode time
	queueWait     *obs.Histogram // gen.queue_wait_seconds: pool start → task pickup
	recovered     *obs.Counter   // gen.recovered_panics: functions salvaged by the panic boundary
	greedyRuns    *obs.Counter   // gen.decode_path.greedy: greedy decode runs, one per row
}

func newGenMetrics(o *obs.Obs) genMetrics {
	return genMetrics{
		functions:     o.Counter("gen.functions"),
		decodeSeconds: o.Histogram("gen.decode_seconds"),
		queueWait:     o.Histogram("gen.queue_wait_seconds"),
		recovered:     o.Counter("gen.recovered_panics"),
		greedyRuns:    o.Counter("gen.decode_path.greedy"),
	}
}

// GenerateFunction runs Stage 3 for one interface function on a new
// target: it resolves the target's property values from its description
// files, builds one feature vector per template row, and decodes each
// into a confidence-annotated statement.
//
// The call is a panic boundary: a crash anywhere in feature resolution,
// decoding, or tensor math degrades to a zero-confidence, error-annotated
// function — one bad template row flags itself for review (the paper's
// per-function confidence behaviour) instead of killing the backend.
func (p *Pipeline) GenerateFunction(g *Group, target string) *generate.Function {
	fn, _ := p.generateFunction(g, target)
	return fn
}

// generateFunction is GenerateFunction returning the target values it
// resolved, which verify-and-repair reuses. It is the only path a
// function takes through Stage 3: resolve the target values, build each
// row's input ids, encode all rows with one EncodeBatch call (the
// transformer; the GRU and BERT baselines decode through Model.Generate)
// and greedily decode each row.
func (p *Pipeline) generateFunction(g *Group, target string) (fn *generate.Function, tv *feature.TargetFeatures) {
	defer func() {
		if r := recover(); r != nil {
			fn = generate.FailedFunction(g.Func.Name, g.FT.Module, target,
				fmt.Errorf("recovered panic: %v", r))
		}
	}()
	if faultinject.Should(faultinject.GeneratePanic, g.Func.Name) {
		panic(fmt.Sprintf("faultinject generate-panic in %s", g.Func.Name))
	}
	tv = p.Extractor.TargetValues(g.TF, target)
	inputs := make([][]int, len(g.FT.Rows))
	cands := make([][]varCands, len(g.FT.Rows))
	for ri := range g.FT.Rows {
		cands[ri] = p.rowCandidates(g, ri, tv, target)
		inputs[ri] = append([]int{model.CLS}, p.Vocab.Encode(p.rowInputTokens(g, ri, tv, cands[ri]))...)
	}
	t, isT := p.Model.(*model.Transformer)
	var mems [][]float32
	if isT {
		mems = t.EncodeBatch(inputs, false)
	}
	fn = &generate.Function{
		Name:   g.Func.Name,
		Module: g.FT.Module,
		Target: target,
	}
	for ri, in := range inputs {
		p.gm.greedyRuns.Inc()
		var outIDs []int
		if isT {
			outIDs = t.Greedy(t.NewIncrementalDecoderFromMemory(mems[ri], false), p.Cfg.MaxOutPieces)
		} else {
			outIDs = p.Model.Generate(in, p.Cfg.MaxOutPieces)
		}
		fn.Statements = append(fn.Statements, p.decodeStatement(g, ri, tv, cands[ri], outIDs))
	}
	return fn, tv
}

// decodeStatement reconstructs a statement from the model's decision
// content: confidence bucket, presence, and per-placeholder values. The
// invariant code comes from the template row; predicted values fill its
// placeholders in order, each selection resolved against the row's
// rowCandidates cands.
func (p *Pipeline) decodeStatement(g *Group, ri int, tv *feature.TargetFeatures, cands []varCands, outIDs []int) generate.Statement {
	st := generate.Statement{Row: ri}
	rest := outIDs
	if len(rest) > 0 {
		if v, ok := p.Vocab.ConfidenceValue(rest[0]); ok {
			st.Score = v
			rest = rest[1:]
		}
	}
	varMark := p.Vocab.ID(markVar)
	nilMark := p.Vocab.ID(markNil)
	var groups [][]int // value pieces per emitted [VAR] group
	for _, id := range rest {
		switch id {
		case model.ABSENT:
			st.Absent = true
		case varMark:
			groups = append(groups, nil)
		default:
			if len(groups) > 0 {
				groups[len(groups)-1] = append(groups[len(groups)-1], id)
			}
		}
	}
	if st.Absent {
		st.Formula = p.rowFormulaScore(g, ri, tv, false)
		return st
	}
	// Fill the row's placeholders with the predicted values, in order.
	ids := g.FT.Rows[ri].VarIDs()
	values := map[int]string{}
	for i, id := range ids {
		if i >= len(groups) {
			break // model under-produced: the SV name stays, parse fails
		}
		pieces := groups[i]
		if len(pieces) == 1 && pieces[0] == nilMark {
			values[id] = ""
			continue
		}
		values[id] = p.decodeValue(cands[i].list, pieces)
	}
	var toks []string
	unresolved := false
	for _, el := range g.FT.Rows[ri].Pattern {
		if !el.Var {
			toks = append(toks, el.Text)
			continue
		}
		if v, ok := values[el.ID]; ok {
			if v != "" {
				toks = append(toks, strings.Fields(v)...)
			}
			continue
		}
		toks = append(toks, el.Text) // unresolved placeholder
		unresolved = true
	}
	st.Text = joinTokens(toks)
	if unresolved && st.Score >= 0.5 {
		// A statement whose placeholder the model could not fill cannot be
		// asserted; cap its confidence below the threshold so it is flagged
		// for review instead of breaking the function.
		st.Score = 0.45
	}
	st.Formula = p.rowFormulaScore(g, ri, tv, true)
	return st
}

// GenerateBackend runs Stage 3 for every function group, producing the
// complete backend for a new target, with per-module wall-clock timings
// (Fig. 7's series).
func (p *Pipeline) GenerateBackend(target string) *generate.Backend {
	return p.GenerateBackendContext(context.Background(), target)
}

// GenOptions scopes and degrades one generation request. The zero value
// generates the complete backend exactly like GenerateBackendContext;
// every field narrows or cheapens the run, which is what the serving
// layer's admission/degradation ladder needs per request.
type GenOptions struct {
	// Modules restricts generation to these module names (corpus.Modules
	// order is preserved regardless of the order given here). Empty means
	// all modules.
	Modules []string
	// Functions restricts generation to these interface-function names.
	// Empty means all functions in scope.
	Functions []string
	// MaxFunctions truncates the task list after this many functions
	// (0 = unlimited). A truncated run is marked Backend.Truncated so the
	// caller can surface the degradation explicitly.
	MaxFunctions int
	// Verify turns on verify-and-repair for this request: generated
	// functions are executed against ground truth and repaired from
	// counterexamples on divergence (up to repair.DefaultRounds rounds).
	Verify bool
	// SkipRepair keeps verification on but skips the repair rounds — a
	// rung of the serving degrade ladder (serve.DegradePolicy).
	// Functions still carry a verification status; diverging ones report
	// VerifyFailed with zero rounds instead of burning decode budget.
	SkipRepair bool
}

// moduleListed reports whether module survives a Modules filter (an empty
// filter admits everything).
func moduleListed(filter []string, module string) bool {
	return len(filter) == 0 || slices.Contains(filter, module)
}

// inScope reports whether a module/function pair survives both filters.
func (o GenOptions) inScope(module, fn string) bool {
	return moduleListed(o.Modules, module) && (len(o.Functions) == 0 || slices.Contains(o.Functions, fn))
}

// GenerateBackendContext is GenerateBackend with cancellation: when ctx
// is canceled or times out mid-run, the backend generated so far is
// returned with Partial set, so a long Stage 3 run salvages the
// functions it finished. Functions that panic are recovered (see
// GenerateFunction) and counted in Recovered.
//
// Generation runs on a pool of min(GOMAXPROCS, functions) goroutines:
// model weights and Stage 1 state are read-only after training, so
// interface functions decode independently. The pool preserves the
// serial contract exactly:
//
//   - Functions appear in deterministic order — modules in
//     corpus.Modules order, groups in p.Groups order within a module —
//     for any worker count, with identical bytes (the differential
//     tests in generate_parallel_test.go enforce this).
//   - Seconds keeps Fig. 7's per-module semantics: each function's
//     inference time — resolving its target values, encoding its rows
//     and decoding them — is recorded individually and aggregated into
//     its module's entry. (Workers overlap, so module sums exceed wall
//     clock on multi-core machines; cross-module ratios, the figure's
//     subject, are preserved.) Wall records the pool's wall clock.
//   - Cancellation is observed per task: workers stop picking up work,
//     already-decoded functions are kept, and Partial is set.
func (p *Pipeline) GenerateBackendContext(ctx context.Context, target string) *generate.Backend {
	return p.GenerateBackendOptions(ctx, target, GenOptions{})
}

// GenerateBackendOptions is GenerateBackendContext narrowed by opt: the
// request can scope generation to a module subset or an explicit function
// list, truncate after MaxFunctions (marked Truncated), or verify. The
// cancellation, panic-isolation, determinism, and Seconds contracts of
// GenerateBackendContext hold unchanged within the scope.
//
// The method is safe for concurrent use: model weights and Stage 1 state
// are read-only after training, metrics are atomic, and all per-run state
// lives on the stack — overlapping calls against one shared pipeline (the
// serving snapshot case) produce bit-identical results to serial runs
// (enforced by internal/serve's concurrency differential test).
func (p *Pipeline) GenerateBackendOptions(ctx context.Context, target string, opt GenOptions) *generate.Backend {
	ctx = obs.With(ctx, p.Cfg.Obs)
	ctx, span := obs.Start(ctx, "stage3/generate", obs.String("target", target))
	defer span.End()
	b := &generate.Backend{Target: target, Seconds: make(map[string]float64)}

	// Build the work list in the serial output order. The injected
	// mid-run cancellation point cuts the list at a module boundary
	// before any of that module's functions are attempted, exactly like
	// the serial path did.
	type task struct {
		g      *Group
		module string
	}
	var tasks []task
	for _, m := range corpus.Modules {
		if !moduleListed(opt.Modules, string(m)) {
			continue
		}
		if faultinject.Should(faultinject.GenerateCancel, string(m)) {
			b.Partial = true
			break
		}
		for _, g := range p.Groups {
			if g.FT.Module == string(m) && opt.inScope(string(m), g.Func.Name) {
				if opt.MaxFunctions > 0 && len(tasks) >= opt.MaxFunctions {
					b.Truncated = true
					continue
				}
				tasks = append(tasks, task{g, string(m)})
			}
		}
	}

	workers := min(runtime.GOMAXPROCS(0), len(tasks))

	// Verify-and-repair: built only when requested, so the default path
	// pays nothing (no oracle, no engine, not even a nil-check per row).
	// One engine serves every worker — it is stateless between functions
	// and each Verify builds a fresh eval universe, so per-function runs
	// are independent and the output stays byte-identical for any worker
	// count.
	var eng *repair.Engine
	rounds := 0 // verify only: the degrade ladder's SkipRepair rung
	if opt.Verify {
		// Best-effort: a target outside the fleet (generating for a brand
		// new ISA) simply has no reference, and the oracle degrades.
		ref, _ := p.Provider.ReferenceBackend(target)
		eng = repair.NewEngine(&repair.Oracle{Ref: ref}, p.Cfg.Obs)
		if !opt.SkipRepair {
			rounds = repair.DefaultRounds
		}
	}

	span.SetAttr(obs.Int("workers", workers), obs.Int("tasks", len(tasks)))
	results := make([]*generate.Function, len(tasks))
	durs := make([]float64, len(tasks))
	var next int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	poolStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(tasks) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				// Queue wait: every task is ready at pool start, so the
				// gap to pickup measures pool starvation.
				p.gm.queueWait.Observe(time.Since(poolStart).Seconds())
				_, fnSpan := obs.Start(ctx, "stage3/function",
					obs.String("func", tasks[i].g.Func.Name),
					obs.String("module", tasks[i].module))
				start := time.Now()
				fn, tv := p.generateFunction(tasks[i].g, target)
				results[i] = fn
				durs[i] = time.Since(start).Seconds()
				if eng != nil {
					// Outside the timing: Seconds keeps Fig. 7's
					// inference-only semantics whether or not verify is on.
					// Repair reuses the target values generation resolved.
					eng.Run(ctx, fn, repairDecoder{p: p, g: tasks[i].g, tv: tv}, rounds)
				}
				fnSpan.End()
				p.gm.functions.Inc()
				p.gm.decodeSeconds.Observe(durs[i])
			}
		}()
	}
	wg.Wait()
	b.Wall = time.Since(poolStart).Seconds()

	if canceled.Load() || ctx.Err() != nil {
		b.Partial = true
	}
	for i, fn := range results {
		if fn == nil {
			continue // task skipped after cancellation
		}
		if fn.Failed() {
			b.Recovered++
			p.gm.recovered.Inc()
		}
		if fn.Verify != nil {
			switch fn.Verify.Status {
			case generate.VerifyPassed:
				b.Verified++
			case generate.VerifyRepaired:
				b.Verified++
				b.Repaired++
			case generate.VerifyFailed:
				b.RepairFailed++
			}
		}
		b.Functions = append(b.Functions, fn)
		b.Seconds[tasks[i].module] += durs[i]
	}
	return b
}

// Describe renders a one-line summary of a generated backend.
func Describe(b *generate.Backend) string {
	gen := 0
	for _, f := range b.Functions {
		if f.Generated() {
			gen++
		}
	}
	return fmt.Sprintf("%s: %d/%d functions generated", b.Target, gen, len(b.Functions))
}
