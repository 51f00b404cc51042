package core

import (
	"strings"

	"vega/internal/confidence"
	"vega/internal/cpp"
	"vega/internal/feature"
	"vega/internal/generate"
)

// repairDecoder adapts the pipeline's Stage 3 decoder to the repair
// engine's constrained re-decoding interface. Candidates come from three
// deterministic sources, in preference order:
//
//  1. the row template instantiated with the generation target's own
//     mined placeholder values (the value grid counterexamples prune —
//     the model's top choice was refuted, so its competitors get their
//     turn in similarity-rank order);
//  2. the training targets' own statements for the row, in fleet order
//     (the template's PerTarget variants — ground-truth shapes the model
//     may have mis-scored);
//  3. when the row may legitimately be absent, the explicit drop.
//
// Texts in banned (refuted by earlier rounds) are pruned. Candidate
// scores are lifted to the confidence threshold so an adopted candidate
// renders; only fully verified functions ever keep these lifted scores —
// failed repairs revert to the original statements.
//
// One decoder serves one generated function: g is its group and tv the
// target values generation resolved for it.
type repairDecoder struct {
	p  *Pipeline
	g  *Group
	tv *feature.TargetFeatures
}

func (d repairDecoder) Candidates(row int, banned []string, forcePresent bool) []generate.Statement {
	g, tv := d.g, d.tv
	if row < 0 || row >= len(g.FT.Rows) {
		return nil
	}
	skip := make(map[string]bool, len(banned))
	for _, b := range banned {
		skip[b] = true
	}
	// A candidate that still carries a raw placeholder name (the model
	// under-produced and the SV slot went unfilled) can never parse —
	// score-lifting it would only waste a verification.
	varNames := map[string]bool{}
	for _, el := range g.FT.Rows[row].Pattern {
		if el.Var {
			varNames[el.Text] = true
		}
	}
	unresolved := func(text string) bool {
		if len(varNames) == 0 {
			return false
		}
		toks, err := cpp.Lex(text)
		if err != nil {
			return true
		}
		for _, tok := range cpp.TokenTexts(toks) {
			if varNames[tok] {
				return true
			}
		}
		return false
	}
	var out []generate.Statement
	seenAbsent := false
	add := func(st generate.Statement) {
		if st.Absent {
			if forcePresent || seenAbsent {
				return
			}
			seenAbsent = true
			out = append(out, st)
			return
		}
		if st.Text == "" || skip[st.Text] || unresolved(st.Text) {
			return
		}
		skip[st.Text] = true
		if !confidence.Likely(st.Score) {
			// A refutation-driven substitution must survive the
			// confidence filter to take effect; verification, not the
			// score, now decides whether it stays.
			st.Score = confidence.Threshold
		}
		out = append(out, st)
	}

	for _, st := range d.templateCandidates(g, row, tv) {
		add(st)
	}
	for _, tgt := range g.Targets {
		toks, ok := g.FT.Rows[row].PerTarget[tgt]
		if !ok {
			continue
		}
		add(generate.Statement{
			Row:     row,
			Text:    joinTokens(toks),
			Score:   confidence.Threshold,
			Formula: d.p.rowFormulaScore(g, row, tv, true),
		})
	}
	add(generate.Statement{Row: row, Absent: true,
		Formula: d.p.rowFormulaScore(g, row, tv, false)})
	return out
}

// Caps on the template-instantiation grid: values per placeholder and
// instantiations per row. The engine's DefaultCandidates caps the final
// pool, so these only bound the enumeration work.
const (
	repairMaxVarValues = 4
	repairMaxCombos    = 12
)

// templateCandidates instantiates the row's pattern with the generation
// target's own mined placeholder values — the same candidate lists the
// encoder shows the model, enumerated directly so verification (not the
// model's refuted ranking) picks among them. Rows with a placeholder that
// mined no candidates produce nothing: an unresolved SV name cannot parse.
func (d repairDecoder) templateCandidates(g *Group, row int, tv *feature.TargetFeatures) []generate.Statement {
	ids := g.FT.Rows[row].VarIDs()
	formula := d.p.rowFormulaScore(g, row, tv, true)
	vals := make([][]string, len(ids))
	for i, id := range ids {
		cands, _ := d.p.varCandidates(g, row, id, tv, tv.Target)
		if len(cands) == 0 {
			return nil
		}
		if len(cands) > repairMaxVarValues {
			cands = cands[:repairMaxVarValues]
		}
		vals[i] = cands
	}
	render := func(pick []int) string {
		var toks []string
		vi := 0
		for _, el := range g.FT.Rows[row].Pattern {
			if !el.Var {
				toks = append(toks, el.Text)
				continue
			}
			toks = append(toks, strings.Fields(vals[vi][pick[vi]])...)
			vi++
		}
		return joinTokens(toks)
	}
	var out []generate.Statement
	pick := make([]int, len(ids))
	for len(out) < repairMaxCombos {
		out = append(out, generate.Statement{
			Row: row, Text: render(pick), Score: confidence.Threshold, Formula: formula,
		})
		// Odometer over the value grid, last placeholder fastest, so the
		// similarity-ranked top values pair up first.
		i := len(pick) - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(vals[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}
