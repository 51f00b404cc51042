package eval

import (
	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/template"
)

// BackendEval is the full evaluation of one generated backend.
type BackendEval struct {
	Target  string
	Results []FuncResult
}

// EvaluateBackend scores every generated function of a backend against
// the reference backend. templates maps interface-function names to their
// function templates (for multi-source attribution; may be nil).
func EvaluateBackend(gen *generate.Backend, ref *corpus.Backend, templates map[string]*template.FunctionTemplate) *BackendEval {
	u := NewUniverse(ref)
	be := &BackendEval{Target: gen.Target}
	for _, f := range gen.Functions {
		var ft *template.FunctionTemplate
		if templates != nil {
			ft = templates[f.Name]
		}
		be.Results = append(be.Results, u.EvaluateFunction(f, ref.Funcs[f.Name], ft))
	}
	return be
}

// ModuleStats aggregates results per function module (one bar group of
// Fig. 8 / Fig. 9 / one row of Table 3).
type ModuleStats struct {
	Module string

	Funcs       int // functions the backend should have
	Accurate    int
	HighConf    int // accurate with confidence ≈ 1.00
	MidConf     int // accurate with confidence in [0.5, 0.99]
	MultiSource int

	RefStatements      int
	AccurateStatements int
	ManualEffort       int

	ErrV, ErrCS, ErrDef int
}

// FunctionAccuracy is the module's pass@1 rate.
func (m ModuleStats) FunctionAccuracy() float64 {
	if m.Funcs == 0 {
		return 0
	}
	return float64(m.Accurate) / float64(m.Funcs)
}

// StatementAccuracy is the module's statement-level accuracy.
func (m ModuleStats) StatementAccuracy() float64 {
	if m.RefStatements == 0 {
		return 0
	}
	return float64(m.AccurateStatements) / float64(m.RefStatements)
}

// ByModule aggregates the evaluation per module, in the paper's module
// order; modules absent from the backend (DIS for XCore) are skipped.
func (be *BackendEval) ByModule() []ModuleStats {
	acc := map[string]*ModuleStats{}
	for _, r := range be.Results {
		if !r.RefExists && !r.Emitted {
			continue // correctly omitted function: not part of the backend
		}
		m := acc[r.Module]
		if m == nil {
			m = &ModuleStats{Module: r.Module}
			acc[r.Module] = m
		}
		m.Funcs++
		if r.Accurate {
			m.Accurate++
			if r.Confidence > 0.99 {
				m.HighConf++
			} else if r.Confidence >= 0.5 {
				m.MidConf++
			}
			if r.MultiSource {
				m.MultiSource++
			}
		}
		m.RefStatements += r.RefStatements
		m.AccurateStatements += r.AccurateStatements
		m.ManualEffort += r.ManualEffort
		if r.ErrV {
			m.ErrV++
		}
		if r.ErrCS {
			m.ErrCS++
		}
		if r.ErrDef {
			m.ErrDef++
		}
	}
	var out []ModuleStats
	for _, mod := range corpus.Modules {
		if m, ok := acc[string(mod)]; ok {
			out = append(out, *m)
		}
	}
	return out
}

// Totals aggregates across all modules.
func (be *BackendEval) Totals() ModuleStats {
	t := ModuleStats{Module: "ALL"}
	for _, m := range be.ByModule() {
		t.Funcs += m.Funcs
		t.Accurate += m.Accurate
		t.HighConf += m.HighConf
		t.MidConf += m.MidConf
		t.MultiSource += m.MultiSource
		t.RefStatements += m.RefStatements
		t.AccurateStatements += m.AccurateStatements
		t.ManualEffort += m.ManualEffort
		t.ErrV += m.ErrV
		t.ErrCS += m.ErrCS
		t.ErrDef += m.ErrDef
	}
	return t
}

// RepairStats aggregates the verify-and-repair outcomes of a backend
// evaluation (the verified pass@1 / pass@k / repair-rate table that sits
// beside the paper's accuracy figures).
type RepairStats struct {
	// Attempted counts functions that were actually executed against
	// ground truth (statuses passed/repaired/failed).
	Attempted int
	// PassedFirst counts functions that passed verification as generated
	// — plain pass@1 restricted to the verified set.
	PassedFirst int
	// Repaired counts functions recovered by counterexample-guided
	// repair; Failed counts functions whose repair rounds were exhausted.
	Repaired, Failed int
	// NoOracle counts functions with no ground truth to execute against.
	NoOracle int
	// Rounds sums CEGAR rounds across non-passing functions.
	Rounds int
}

// PlainPass1 is the fraction of verified functions that passed as
// generated (what pass@1 would have been without repair).
func (r RepairStats) PlainPass1() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.PassedFirst) / float64(r.Attempted)
}

// VerifiedPass1 is the fraction of verified functions whose final
// artifact passes — passed-first plus repaired. Repair never replaces a
// function with a non-passing variant, so VerifiedPass1 >= PlainPass1 by
// construction.
func (r RepairStats) VerifiedPass1() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.PassedFirst+r.Repaired) / float64(r.Attempted)
}

// RepairRate is the share of initially diverging functions the repair
// loop recovered.
func (r RepairStats) RepairRate() float64 {
	if r.Repaired+r.Failed == 0 {
		return 0
	}
	return float64(r.Repaired) / float64(r.Repaired+r.Failed)
}

// Repair aggregates verify-and-repair outcomes across the evaluation
// (all zeros when generation ran without Config.Verify).
func (be *BackendEval) Repair() RepairStats {
	var r RepairStats
	for _, res := range be.Results {
		switch res.Verified {
		case generate.VerifyPassed:
			r.Attempted++
			r.PassedFirst++
		case generate.VerifyRepaired:
			r.Attempted++
			r.Repaired++
		case generate.VerifyFailed:
			r.Attempted++
			r.Failed++
		case generate.VerifyNoOracle:
			r.NoOracle++
		}
		r.Rounds += res.RepairRounds
	}
	return r
}

// ModuleAverageAccuracy is the mean of per-module accuracies — the
// "average across the seven function modules" the paper reports alongside
// the all-functions rate.
func (be *BackendEval) ModuleAverageAccuracy() float64 {
	mods := be.ByModule()
	if len(mods) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range mods {
		sum += m.FunctionAccuracy()
	}
	return sum / float64(len(mods))
}

// ErrorShare returns the fraction of all functions exhibiting each error
// type (Table 2's percentages).
func (be *BackendEval) ErrorShare() (errV, errCS, errDef float64) {
	t := be.Totals()
	if t.Funcs == 0 {
		return 0, 0, 0
	}
	n := float64(t.Funcs)
	return float64(t.ErrV) / n, float64(t.ErrCS) / n, float64(t.ErrDef) / n
}

// EffortModel converts manual-effort statement counts into developer
// hours (Table 4). The per-statement rate is calibrated from the paper:
// RISC-V's 7,223 manual statements took developer A 42.54 hours.
type EffortModel struct {
	HoursPerStatement float64
	DeveloperFactor   float64 // B took ~13% longer than A
}

// DeveloperA and DeveloperB mirror the paper's two reviewers.
var (
	DeveloperA = EffortModel{HoursPerStatement: 42.54 / 7223, DeveloperFactor: 1.0}
	DeveloperB = EffortModel{HoursPerStatement: 42.54 / 7223, DeveloperFactor: 48.12 / 42.54}
)

// Hours estimates correction time per module.
func (e EffortModel) Hours(mods []ModuleStats) map[string]float64 {
	out := make(map[string]float64, len(mods))
	for _, m := range mods {
		out[m.Module] = float64(m.ManualEffort) * e.HoursPerStatement * e.DeveloperFactor
	}
	return out
}

// TotalHours sums the per-module estimate.
func (e EffortModel) TotalHours(mods []ModuleStats) float64 {
	total := 0.0
	for _, h := range e.Hours(mods) {
		total += h
	}
	return total
}
