package repair

import (
	"context"
	"fmt"
	"log"
	"sync"

	"vega/internal/generate"
	"vega/internal/obs"
)

// Decoder supplies constrained re-decoding for the rows of one generated
// function: the alternative statements the model (and the training
// corpus) can offer once the current candidate is refuted.
// Implementations must be deterministic — candidate order is part of the
// repair loop's byte-determinism contract — and must honor banned
// (refuted texts are pruned, not re-proposed).
type Decoder interface {
	Candidates(row int, banned []string, forcePresent bool) []generate.Statement
}

// Default bounds: three rounds of up to four suspects, six candidates
// each, keeps worst-case verification work per function small while
// covering the dominant single-statement divergences.
const (
	DefaultRounds     = 3
	DefaultCandidates = 6
	DefaultSuspects   = 4
)

// engineMetrics caches the repair instruments (nil and inert without an
// observer, like every obs consumer in the pipeline).
type engineMetrics struct {
	attempted *obs.Counter   // repair.attempted: functions verified
	noOracle  *obs.Counter   // repair.no_oracle: no ground truth to execute against
	passed    *obs.Counter   // repair.passed: passed on first verification
	repaired  *obs.Counter   // repair.repaired: recovered by constrained re-decoding
	failed    *obs.Counter   // repair.failed: rounds exhausted, original returned
	rounds    *obs.Histogram // repair.rounds: CEGAR rounds per non-passing function
	tried     *obs.Counter   // repair.candidates_tried: candidate verifications run
	panics    *obs.Counter   // repair.verify_panics: panics recovered inside verify/repair
}

func newEngineMetrics(o *obs.Obs) engineMetrics {
	return engineMetrics{
		attempted: o.Counter("repair.attempted"),
		noOracle:  o.Counter("repair.no_oracle"),
		passed:    o.Counter("repair.passed"),
		repaired:  o.Counter("repair.repaired"),
		failed:    o.Counter("repair.failed"),
		rounds:    o.Histogram("repair.rounds"),
		tried:     o.Counter("repair.candidates_tried"),
		panics:    o.Counter("repair.verify_panics"),
	}
}

// Engine runs the verify-and-repair loop over generated functions. It is
// stateless between functions (the ban list is per-call), so one engine
// is safely shared by every generation worker.
type Engine struct {
	oracle *Oracle
	obs    *obs.Obs
	m      engineMetrics

	panicWarn sync.Once
}

// NewEngine builds an engine over one oracle.
func NewEngine(o *Oracle, ob *obs.Obs) *Engine {
	return &Engine{oracle: o, obs: ob, m: newEngineMetrics(ob)}
}

// Run verifies fn and, on divergence, attempts up to rounds CEGAR repair
// rounds with candidates from dec, fn's decoder (rounds 0 verifies only —
// the degrade ladder's skip-repair rung; a nil dec has no candidates to
// try, so a failing function goes straight to VerifyFailed). fn.Verify is
// always set on return; fn.Statements is replaced only when a repair
// candidate fully passes verification, and reverts to the original
// generation otherwise.
//
// The call is a panic boundary per verification: a crash inside the
// interpreter or parser refutes the candidate being tried (or fails the
// round) instead of killing the generation worker.
func (e *Engine) Run(ctx context.Context, fn *generate.Function, dec Decoder, rounds int) {
	if e == nil || fn == nil || fn.Failed() {
		return
	}
	ctx, span := obs.Start(obs.With(ctx, e.obs), "repair/function",
		obs.String("func", fn.Name))
	defer span.End()

	ver := &generate.Verification{}
	fn.Verify = ver
	e.m.attempted.Inc()

	v := e.verifySafe(fn)
	switch {
	case v.NoOracle:
		ver.Status = generate.VerifyNoOracle
		e.m.noOracle.Inc()
		return
	case v.Pass:
		ver.Status = generate.VerifyPassed
		e.m.passed.Inc()
		return
	}
	ver.Counterexample = v.CE.String()

	orig := append([]generate.Statement(nil), fn.Statements...)
	work := append([]generate.Statement(nil), fn.Statements...)
	banned := map[int][]string{}
	for round := 1; round <= rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		ver.Rounds = round
		improved := e.round(ctx, fn, dec, &work, &v, banned)
		if v.Pass || !improved {
			break
		}
		ver.Counterexample = v.CE.String()
	}
	if v.Pass {
		fn.Statements = work
		ver.Status = generate.VerifyRepaired
		ver.RepairedRows = changedRows(orig, work)
		ver.Counterexample = ""
		e.m.repaired.Inc()
		e.m.rounds.Observe(float64(ver.Rounds))
		return
	}
	fn.Statements = orig
	ver.Status = generate.VerifyFailed
	e.m.failed.Inc()
	if ver.Rounds > 0 {
		e.m.rounds.Observe(float64(ver.Rounds))
	}
}

// round tries one constrained re-decode pass: for each suspect row (in
// divergence order), every non-banned candidate is substituted and
// re-verified. The first fully passing candidate ends the repair; short
// of that, the candidate passing the most regression cases is adopted
// when it strictly improves the current verdict, and the refuted text is
// banned for later rounds. Returns whether the verdict improved.
func (e *Engine) round(ctx context.Context, fn *generate.Function, dec Decoder, work *[]generate.Statement, v *Verdict, banned map[int][]string) (improved bool) {
	defer func() {
		if r := recover(); r != nil {
			// A panic mid-round (bad candidate text crashing the lexer,
			// say) abandons the round but keeps the best state adopted so
			// far; the loop's caller sees no improvement and stops.
			e.m.panics.Inc()
			e.warnPanic(fn.Name, r)
			improved = false
		}
	}()
	// Wholesale re-materialization first: when the divergence is
	// widespread — a render so broken there is no single-row gradient to
	// climb (the degenerate case: every statement dropped, nothing
	// parses) — substitute every suspect's top surviving candidate in one
	// move and verify once. A pass ends the repair; a strict improvement
	// is adopted and the next round re-localizes from the new verdict.
	if len(v.Suspects) >= 2 && e.batchSubstitute(ctx, fn, dec, work, v, banned) {
		return true
	}
	suspects := v.Suspects
	if len(suspects) > DefaultSuspects {
		suspects = suspects[:DefaultSuspects]
	}
	for _, s := range suspects {
		if ctx.Err() != nil {
			return false
		}
		idx := rowIndex(*work, s.Row)
		if idx < 0 {
			continue
		}
		rowBans := append(append([]string(nil), banned[s.Row]...), s.Text)
		var cands []generate.Statement
		if dec != nil {
			cands = dec.Candidates(s.Row, rowBans, s.ForcePresent)
		}
		if len(cands) > DefaultCandidates {
			cands = cands[:DefaultCandidates]
		}
		cur := (*work)[idx]
		var best *Verdict
		var bestStmt generate.Statement
		for _, cand := range cands {
			if cand.Row != s.Row || sameStatement(cand, cur) || inBans(rowBans, cand) {
				continue
			}
			(*work)[idx] = cand
			trial := e.verifySafe(&generate.Function{
				Name: fn.Name, Module: fn.Module, Target: fn.Target, Statements: *work,
			})
			e.m.tried.Inc()
			if trial.Pass {
				*v = trial
				return true
			}
			if best == nil || trial.Passed > best.Passed {
				t := trial
				best, bestStmt = &t, cand
			}
		}
		(*work)[idx] = cur
		if best != nil && best.Passed > v.Passed {
			// Adopt the best partial improvement, refute the old text,
			// and let the next round re-localize from the new verdict.
			(*work)[idx] = bestStmt
			banned[s.Row] = append(banned[s.Row], cur.Text)
			*v = *best
			return true
		}
	}
	return false
}

// batchSubstitute applies the first non-banned candidate of every suspect
// row simultaneously, verifies the combined function once, and keeps the
// batch only when it passes or strictly improves the verdict. The current
// row text is NOT banned here: a dropped statement's own text, re-proposed
// above the confidence threshold, is a legitimate (and common) fix.
func (e *Engine) batchSubstitute(ctx context.Context, fn *generate.Function, dec Decoder, work *[]generate.Statement, v *Verdict, banned map[int][]string) bool {
	if dec == nil || ctx.Err() != nil {
		return false
	}
	saved := append([]generate.Statement(nil), *work...)
	changed := false
	for _, s := range v.Suspects {
		idx := rowIndex(*work, s.Row)
		if idx < 0 {
			continue
		}
		rowBans := banned[s.Row]
		for _, cand := range dec.Candidates(s.Row, rowBans, s.ForcePresent) {
			if cand.Row != s.Row || sameStatement(cand, (*work)[idx]) || inBans(rowBans, cand) {
				continue
			}
			(*work)[idx] = cand
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	trial := e.verifySafe(&generate.Function{
		Name: fn.Name, Module: fn.Module, Target: fn.Target, Statements: *work,
	})
	e.m.tried.Inc()
	if trial.Pass || trial.Passed > v.Passed {
		*v = trial
		return true
	}
	*work = saved
	return false
}

// verifySafe is Oracle.Verify behind a panic boundary: a crash during
// verification refutes the function under test instead of propagating.
func (e *Engine) verifySafe(fn *generate.Function) (v Verdict) {
	defer func() {
		if r := recover(); r != nil {
			e.m.panics.Inc()
			e.warnPanic(fn.Name, r)
			v = Verdict{CE: &Counterexample{
				Got:  fmt.Sprintf("verification panic: %v", r),
				Want: "a clean execution",
				Row:  -1,
			}}
		}
	}()
	return e.oracle.Verify(fn)
}

// warnPanic logs the first recovered verification panic once per engine;
// the rest stay visible through repair.verify_panics.
func (e *Engine) warnPanic(fnName string, r any) {
	e.panicWarn.Do(func() {
		log.Printf("repair: recovered verification panic in %s: %v (counted in repair.verify_panics)", fnName, r)
	})
}

func rowIndex(sts []generate.Statement, row int) int {
	for i := range sts {
		if sts[i].Row == row {
			return i
		}
	}
	return -1
}

// sameStatement compares the fields that decide a statement's rendered
// effect. Kept-ness matters: a candidate with a dropped row's exact text
// but an above-threshold score is a real fix (it re-keeps the statement),
// not a re-proposal of the same thing.
func sameStatement(a, b generate.Statement) bool {
	return a.Absent == b.Absent && a.Text == b.Text && a.Kept() == b.Kept()
}

func inBans(bans []string, s generate.Statement) bool {
	if s.Absent {
		return false
	}
	for _, b := range bans {
		if b == s.Text {
			return true
		}
	}
	return false
}

// changedRows lists rows whose statement differs between the original and
// repaired forms, in row order.
func changedRows(orig, repaired []generate.Statement) []int {
	var out []int
	for i := range repaired {
		if i >= len(orig) || !sameStatement(orig[i], repaired[i]) {
			out = append(out, repaired[i].Row)
		}
	}
	return out
}
