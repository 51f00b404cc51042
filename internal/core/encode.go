package core

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"vega/internal/confidence"
	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/model"
)

// Marker tokens structuring the model input (atomic vocabulary pieces).
const (
	markRow   = "[ROW]"
	markSep   = "[SEP]"
	markVar   = "[VAR]"
	markCand  = "[CAND]"
	markTrue  = "[T]"
	markFalse = "[F]"
	markOK    = "[OK]"  // statement present, no variant content
	markNil   = "[NIL]" // placeholder present but empty
)

// maxShownCands bounds the flat candidate list per placeholder, and with
// it the number of selection tokens.
const maxShownCands = 8

// selMarks are the pointer-style selection tokens: [C0] picks the first
// shown candidate, and so on. Selecting instead of character-copying is
// what makes value transfer learnable at this model scale; UniXcoder's
// 125M parameters absorb the copying itself, ours point at the input.
var selMarks = []string{"[C0]", "[C1]", "[C2]", "[C3]", "[C4]", "[C5]", "[C6]", "[C7]"}

var markerTokens = append([]string{markRow, markVar, markCand, markTrue, markFalse, markOK, markNil}, selMarks...)

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// candidateSet ranks a target's mined candidates for one (row, var, prop):
// by subword similarity to the values other targets use at this placeholder
// (excluding the target itself), with ordinal proximity breaking ties.
// The top CandidateWindow survive, best first.
func (p *Pipeline) candidateSet(g *Group, row, varID int, prop feature.Property, tv *feature.TargetFeatures, exclude string) []string {
	dep, ok := tv.Deps[prop.Name]
	if !ok || len(dep.Candidates) == 0 {
		return nil
	}
	refs := p.referenceValues(g, row, varID, exclude)
	ord := p.ordinal(g, prop.Name, row, varID)
	// The similarity loop below is candidates × refs; splitting each side
	// into subword units once here (instead of once per pair inside
	// unitSimilarity) keeps the dice scores bit-identical while removing
	// the dominant allocation cost of sample encoding.
	refUnits := make([][]string, len(refs))
	for i, r := range refs {
		refUnits[i] = model.Units(strings.Trim(r, "\""))
	}
	type scored struct {
		val   string
		score float64
		idx   int
	}
	items := make([]scored, 0, len(dep.Candidates))
	for i, c := range dep.Candidates {
		s := 0.0
		if uc := model.Units(c); len(uc) > 0 {
			set := make(map[string]bool, len(uc))
			for _, u := range uc {
				set[u] = true
			}
			for _, ru := range refUnits {
				if len(ru) == 0 {
					continue
				}
				common := 0
				for _, u := range ru {
					if set[u] {
						common++
					}
				}
				if v := 2 * float64(common) / float64(len(uc)+len(ru)); v > s {
					s = v
				}
			}
		}
		// Ordinal proximity: candidates near the placeholder's position in
		// the enumeration order get a small boost.
		dist := i - ord
		if dist < 0 {
			dist = -dist
		}
		s += 0.2 / float64(1+dist)
		items = append(items, scored{val: c, score: s, idx: i})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].score > items[b].score })
	k := p.Cfg.CandidateWindow
	if k > len(items) {
		k = len(items)
	}
	// When this placeholder is used as a string literal (the reference
	// values are quoted), present the candidates quoted too, so selection
	// reconstructs the exact source token.
	quoted := 0
	for _, r := range refs {
		if strings.HasPrefix(r, "\"") {
			quoted++
		}
	}
	wrap := len(refs) > 0 && quoted*2 > len(refs)
	out := make([]string, 0, k)
	for _, it := range items[:k] {
		v := it.val
		if wrap && !strings.HasPrefix(v, "\"") {
			v = "\"" + v + "\""
		}
		out = append(out, v)
	}
	return out
}

// referenceValues collects the values other training targets use for this
// placeholder.
func (p *Pipeline) referenceValues(g *Group, row, varID int, exclude string) []string {
	var out []string
	for _, tgt := range g.Targets {
		if tgt == exclude {
			continue
		}
		vals, ok := g.FT.Values(row, tgt)
		if !ok {
			continue
		}
		if v := vals[varID]; v != "" {
			out = append(out, v)
		}
	}
	return out
}

// ordinal counts how many placeholder slots linked to prop precede this
// one in template order — the slot's position in the target's enumeration.
func (p *Pipeline) ordinal(g *Group, prop string, row, varID int) int {
	pi := g.TF.PropIndex(prop)
	n := 0
	for ri := 0; ri <= row && ri < len(g.FT.Rows); ri++ {
		for _, id := range g.FT.Rows[ri].VarIDs() {
			if ri == row && id == varID {
				return n
			}
			for _, link := range g.TF.VarProps[id] {
				if link == pi {
					n++
					break
				}
			}
		}
	}
	return n
}

// varCandidates returns the flat, ordered candidate list shown for one
// placeholder (prop-major, each prop contributing its similarity-ranked
// window), plus N(SV) — the total choice count behind it. The same list
// indexes the selection tokens at training, generation and decoding time.
func (p *Pipeline) varCandidates(g *Group, row, varID int, tv *feature.TargetFeatures, exclude string) ([]string, int) {
	var flat []string
	seen := map[string]bool{}
	n := 0
	nprops := 0
	for _, li := range g.TF.VarProps[varID] {
		if nprops >= p.Cfg.MaxCandProps {
			break
		}
		prop := g.TF.Props[li]
		cands := p.candidateSet(g, row, varID, prop, tv, exclude)
		if len(cands) == 0 {
			continue
		}
		nprops++
		if dep, ok := tv.Deps[prop.Name]; ok && n == 0 {
			n = dep.N()
		}
		for _, c := range cands {
			if seen[c] || len(flat) >= maxShownCands {
				continue
			}
			seen[c] = true
			flat = append(flat, c)
		}
	}
	return flat, n
}

// rowInputTokens builds the feature-vector token sequence I_k for one
// template row, resolved against one target's property values.
func (p *Pipeline) rowInputTokens(g *Group, row int, tv *feature.TargetFeatures, exclude string) []string {
	toks := []string{g.Func.Name, markRow, strconv.Itoa(row)}
	toks = append(toks, g.FT.Rows[row].PatternTokens()...)
	toks = append(toks, markSep)
	for _, pr := range g.TF.Props {
		if pr.Kind != feature.Independent {
			continue
		}
		if tv.Bools[pr.Name].Value {
			toks = append(toks, markTrue)
		} else {
			toks = append(toks, markFalse)
		}
	}
	ids := g.FT.Rows[row].VarIDs()
	if len(ids) > 0 {
		toks = append(toks, markSep)
		for _, id := range ids {
			toks = append(toks, markVar)
			cands, n := p.varCandidates(g, row, id, tv, exclude)
			toks = append(toks, strconv.Itoa(n))
			for i, c := range cands {
				toks = append(toks, selMarks[i])
				toks = append(toks, strings.Fields(c)...)
			}
		}
	}
	return toks
}

// rowFormulaScore computes Eq. (1) for a row against a target's mined
// candidate counts; has is the statement-existence bit.
func (p *Pipeline) rowFormulaScore(g *Group, row int, tv *feature.TargetFeatures, has bool) float64 {
	common := g.FT.CommonTokenCount(row)
	total := len(g.FT.Rows[row].Pattern)
	var choices []int
	for _, id := range g.FT.Rows[row].VarIDs() {
		n := 0
		for _, li := range g.TF.VarProps[id] {
			prop := g.TF.Props[li]
			if dep, ok := tv.Deps[prop.Name]; ok && dep.N() > 0 {
				n = dep.N()
				break
			}
		}
		choices = append(choices, n)
	}
	return confidence.Statement(common, total, choices, has)
}

// encodedSample is a sample plus its provenance.
type encodedSample struct {
	sample model.Sample
	key    string
	group  string
	target string
	row    int
}

// buildSample encodes one (group, row, target) pair into a training
// sample: input feature vector, output confidence bucket + statement.
func (p *Pipeline) buildSample(g *Group, row int, target string, tv *feature.TargetFeatures) encodedSample {
	in := p.rowInputTokens(g, row, tv, target)
	inIDs := append([]int{model.CLS}, p.Vocab.Encode(in)...)

	// The output is the row's decision content: a confidence bucket, then
	// either [ABSENT], [OK] (present, pure common code), or one [VAR] group
	// of value pieces per placeholder. The invariant code is spliced back
	// from the template at reconstruction time — the paper's common/variant
	// split, pushed through the decoder.
	var outIDs []int
	_, present := g.FT.Rows[row].PerTarget[target]
	score := p.rowFormulaScore(g, row, tv, present)
	outIDs = append(outIDs, p.Vocab.ConfidenceToken(score))
	switch {
	case !present:
		outIDs = append(outIDs, model.ABSENT)
	default:
		ids := g.FT.Rows[row].VarIDs()
		if len(ids) == 0 {
			outIDs = append(outIDs, p.Vocab.ID(markOK))
		} else {
			vals, _ := g.FT.Values(row, target)
			for _, id := range ids {
				outIDs = append(outIDs, p.Vocab.ID(markVar))
				outIDs = append(outIDs, p.encodeValue(g, row, id, tv, target, vals[id])...)
			}
		}
	}
	var key strings.Builder
	for _, id := range inIDs {
		key.WriteString(strconv.Itoa(id))
		key.WriteByte(',')
	}
	key.WriteByte('|')
	for _, id := range outIDs {
		key.WriteString(strconv.Itoa(id))
		key.WriteByte(',')
	}
	return encodedSample{
		sample: model.Sample{Input: inIDs, Output: outIDs},
		key:    key.String(),
		group:  g.Func.Name,
		target: target,
		row:    row,
	}
}

// encodeValue encodes one placeholder value as decision content: a
// selection token when the value is (or starts with) a shown candidate,
// raw pieces otherwise.
func (p *Pipeline) encodeValue(g *Group, row, varID int, tv *feature.TargetFeatures, exclude, v string) []int {
	if v == "" {
		return []int{p.Vocab.ID(markNil)}
	}
	cands, _ := p.varCandidates(g, row, varID, tv, exclude)
	for i, c := range cands {
		if c == v {
			return []int{p.Vocab.ID(selMarks[i])}
		}
	}
	// Composed values: candidate + suffix (RISCV + ELFObjectWriter).
	best, bestLen := -1, 0
	for i, c := range cands {
		if len(c) > bestLen && len(c) < len(v) && strings.HasPrefix(v, c) {
			best, bestLen = i, len(c)
		}
	}
	if best >= 0 {
		out := []int{p.Vocab.ID(selMarks[best])}
		return append(out, p.Vocab.EncodeContinuation(v[bestLen:])...)
	}
	return p.Vocab.Encode(strings.Fields(v))
}

// decodeValue inverts encodeValue given the model's piece ids for one
// placeholder group.
func (p *Pipeline) decodeValue(g *Group, row, varID int, tv *feature.TargetFeatures, exclude string, pieces []int) string {
	if len(pieces) == 0 {
		return ""
	}
	if pieces[0] == p.Vocab.ID(markNil) {
		return ""
	}
	cands, _ := p.varCandidates(g, row, varID, tv, exclude)
	var b strings.Builder
	rest := pieces
	// Leading selection token splices the candidate text.
	for i, m := range selMarks {
		if pieces[0] == p.Vocab.ID(m) {
			if i < len(cands) {
				b.WriteString(cands[i])
			}
			rest = pieces[1:]
			break
		}
	}
	if b.Len() == 0 && rest != nil && len(rest) == len(pieces) {
		// No selection token: plain decoded pieces.
		return joinTokens(p.Vocab.Decode(pieces))
	}
	// Remaining pieces continue the token (##) or start new ones.
	for _, id := range rest {
		t := p.Vocab.PieceText(id)
		if strings.HasPrefix(t, "##") {
			b.WriteString(t[2:])
		} else if t != "" && t[0] != '[' {
			b.WriteString(" ")
			b.WriteString(t)
		}
	}
	return b.String()
}

// trainingSequences gathers the raw token sequences of the training
// split, for vocabulary construction.
func (p *Pipeline) trainingSequences() [][]string {
	var seqs [][]string
	for _, g := range p.Groups {
		for _, tgt := range g.Targets {
			if !p.TrainFns[g.Func.Name+"/"+tgt] {
				continue
			}
			tv := g.TF.Targets[tgt]
			for ri := range g.FT.Rows {
				seqs = append(seqs, p.rowInputTokens(g, ri, tv, tgt))
				if toks, ok := g.FT.Rows[ri].PerTarget[tgt]; ok {
					seqs = append(seqs, toks)
				}
			}
		}
	}
	return seqs
}

// forceCharNames lists every fleet target's namespace variants, which the
// tokenizer always decomposes to characters: the model must treat target
// names as unseen strings even during training.
func (p *Pipeline) forceCharNames() []string {
	var out []string
	for t := range p.Provider.TargetSpecs() {
		out = append(out, t.Name, lower(t.Name), upper(t.Name), t.TdName)
	}
	return out
}

func lower(s string) string { return strings.ToLower(s) }
func upper(s string) string { return strings.ToUpper(s) }

// absentSamples teaches whole-function absence: for every group, every
// training backend that does NOT implement the interface function yields
// all-absent row samples. Without these, a model never sees "this function
// does not exist here" and hallucinates DIS functions for targets without
// a disassembler.
func (p *Pipeline) absentSamples() []encodedSample {
	var out []encodedSample
	for _, g := range p.Groups {
		implements := map[string]bool{}
		for _, tgt := range g.Targets {
			implements[tgt] = true
		}
		for _, t := range corpus.TrainingSpecs(p.Provider) {
			tgt := t.Name
			if implements[tgt] {
				continue
			}
			tv := p.Extractor.TargetValues(g.TF, tgt)
			for ri := range g.FT.Rows {
				out = append(out, p.buildSample(g, ri, tgt, tv))
			}
		}
	}
	return out
}

// samplesForSplit encodes all (group, target) pairs of a split.
func (p *Pipeline) samplesForSplit(split map[string]bool) []encodedSample {
	var out []encodedSample
	for _, g := range p.Groups {
		for _, tgt := range g.Targets {
			if !split[g.Func.Name+"/"+tgt] {
				continue
			}
			tv := g.TF.Targets[tgt]
			for ri := range g.FT.Rows {
				out = append(out, p.buildSample(g, ri, tgt, tv))
			}
		}
	}
	return out
}

// dedupAndCap removes duplicate samples and caps the set deterministically.
func (p *Pipeline) dedupAndCap(samples []encodedSample, capN int, seed int64) []model.Sample {
	seen := map[string]bool{}
	var uniq []encodedSample
	for _, s := range samples {
		if seen[s.key] {
			continue
		}
		seen[s.key] = true
		uniq = append(uniq, s)
	}
	rng := newRNG(seed)
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	if capN > 0 && len(uniq) > capN {
		uniq = uniq[:capN]
	}
	out := make([]model.Sample, len(uniq))
	for i, s := range uniq {
		out[i] = s.sample
	}
	return out
}
