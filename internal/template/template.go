// Package template implements VEGA's templatization stage: abstracting a
// function group — the target-specific implementations of one compiler
// interface function — into a single function template that blends common
// code with SV placeholders standing for target-specific values.
//
// Templates are built by progressive multi-way alignment: each
// implementation's statement sequence is aligned against the growing
// template by token-LCS statement alignment (package gumtree, which stands
// in for the paper's GumTree tree matching), matched statements are merged
// token-wise (tokens outside the longest common subsequence become
// placeholders), and unmatched statements extend the template as
// target-conditional rows.
package template

import (
	"fmt"
	"strings"
	"sync"

	"vega/internal/cpp"
	"vega/internal/gumtree"
)

// Impl is one target's implementation of an interface function, already
// pre-processed (inlined, normalized) and split into statements.
type Impl struct {
	Target string
	Stmts  []cpp.Statement
}

// NewImpl splits a parsed function into an Impl.
func NewImpl(target string, fn *cpp.Node) Impl {
	return Impl{Target: target, Stmts: cpp.SplitFunction(fn)}
}

// Elem is one element of a statement template's pattern: either a literal
// token of the common code or a placeholder for a target-specific value.
type Elem struct {
	Var  bool
	Text string // literal token text; for vars the display name "SV<id>"
	ID   int    // placeholder id, valid when Var
}

// Row is one statement template (the paper's T_k).
type Row struct {
	Pattern []Elem
	// PerTarget holds each target's raw token sequence for this row;
	// targets without the statement are absent.
	PerTarget map[string][]string
}

// HasTarget reports whether the target implements this statement.
func (r *Row) HasTarget(target string) bool {
	_, ok := r.PerTarget[target]
	return ok
}

// PatternTokens renders the pattern as a token list with SV names in
// placeholder positions.
func (r *Row) PatternTokens() []string {
	out := make([]string, len(r.Pattern))
	for i, e := range r.Pattern {
		out[i] = e.Text
	}
	return out
}

// VarIDs lists the placeholder ids of the row, in order.
func (r *Row) VarIDs() []int {
	var out []int
	for _, e := range r.Pattern {
		if e.Var {
			out = append(out, e.ID)
		}
	}
	return out
}

// literalTokens returns the literal tokens with their pattern positions.
func (r *Row) literalTokens() (toks []string, pos []int) {
	for i, e := range r.Pattern {
		if !e.Var {
			toks = append(toks, e.Text)
			pos = append(pos, i)
		}
	}
	return toks, pos
}

// FunctionTemplate is the abstraction of a whole function group
// (the paper's FT_M).
type FunctionTemplate struct {
	Name    string // interface function name, e.g. "getRelocType"
	Module  string // owning function module (SEL, REG, ... set by caller)
	Targets []string
	Rows    []Row
	NumVars int

	// vals memoizes Values results: the per-(row, target) LCS alignment
	// is deterministic once the template is built, and generation asks
	// for the same rows once per placeholder per pass. Guarded by valsMu;
	// unexported, so snapshot encoding ignores it.
	valsMu sync.Mutex
	vals   map[valsKey]valsEntry
}

type valsKey struct {
	row    int
	target string
}

type valsEntry struct {
	vals    map[int]string
	present bool
}

// Build constructs the function template for a group of implementations.
// At least one implementation is required.
func Build(name string, impls []Impl) (*FunctionTemplate, error) {
	if len(impls) == 0 {
		return nil, fmt.Errorf("template: empty function group %q", name)
	}
	ft := &FunctionTemplate{Name: name}
	first := impls[0]
	ft.Targets = append(ft.Targets, first.Target)
	// memo interns statement token lists for the whole progressive
	// alignment; rowIDs tracks, per row, the interned ids of the distinct
	// token lists its PerTarget map holds, so merge's best-of-targets
	// loop scores each distinct list once per statement pair.
	memo := gumtree.NewSimCache()
	var rowIDs [][]int
	for _, st := range first.Stmts {
		toks := gumtree.StatementTokens(st)
		row := Row{PerTarget: map[string][]string{first.Target: toks}}
		for _, t := range toks {
			row.Pattern = append(row.Pattern, Elem{Text: t})
		}
		ft.Rows = append(ft.Rows, row)
		rowIDs = append(rowIDs, []int{memo.Intern(toks)})
	}
	for _, impl := range impls[1:] {
		rowIDs = ft.merge(impl, memo, rowIDs)
	}
	ft.renumber()
	return ft, nil
}

// merge aligns one more implementation into the template. rowIDs carries
// the interned token-list ids per row (parallel to ft.Rows); the updated
// slice for the merged row set is returned.
func (ft *FunctionTemplate) merge(impl Impl, memo *gumtree.SimCache, rowIDs [][]int) [][]int {
	implToks := make([][]string, len(impl.Stmts))
	implIDs := make([]int, len(impl.Stmts))
	for i, st := range impl.Stmts {
		implToks[i] = gumtree.StatementTokens(st)
		implIDs[i] = memo.Intern(implToks[i])
	}
	// Row-to-statement similarity: the best similarity against any target
	// already recorded for the row. This keeps alignment stable as the
	// template accumulates placeholder-heavy rows. Scoring the distinct
	// interned lists (max is order- and multiplicity-independent) is
	// bit-identical to scoring every PerTarget entry.
	sim := func(i, j int) float64 {
		best := 0.0
		for _, id := range rowIDs[i] {
			if s := memo.Sim(id, implIDs[j]); s > best {
				best = s
			}
		}
		return best
	}
	pairs := gumtree.AlignFunc(len(ft.Rows), len(impl.Stmts), sim, 0.4)

	var rows []Row
	var newIDs [][]int
	for _, p := range pairs {
		switch {
		case p.A >= 0 && p.B >= 0:
			row := ft.Rows[p.A]
			ft.mergeRow(&row, impl.Target, implToks[p.B])
			rows = append(rows, row)
			newIDs = append(newIDs, appendIDUnique(rowIDs[p.A], implIDs[p.B]))
		case p.A >= 0:
			rows = append(rows, ft.Rows[p.A])
			newIDs = append(newIDs, rowIDs[p.A])
		default:
			row := Row{PerTarget: map[string][]string{impl.Target: implToks[p.B]}}
			for _, t := range implToks[p.B] {
				row.Pattern = append(row.Pattern, Elem{Text: t})
			}
			rows = append(rows, row)
			newIDs = append(newIDs, []int{implIDs[p.B]})
		}
	}
	ft.Rows = rows
	ft.Targets = append(ft.Targets, impl.Target)
	return newIDs
}

// appendIDUnique adds id to ids unless already present. Appending in
// place is safe for the same reason mergeRow's map write is: each old
// row's ids pass to exactly one new row.
func appendIDUnique(ids []int, id int) []int {
	for _, v := range ids {
		if v == id {
			return ids
		}
	}
	return append(ids, id)
}

// mergeRow refines a row's pattern against a new target's tokens: literal
// tokens outside the LCS are demoted to placeholders, and extra target
// tokens force a placeholder in their segment.
func (ft *FunctionTemplate) mergeRow(row *Row, target string, toks []string) {
	lits, litPos := row.literalTokens()
	lcs := gumtree.TokenLCS(lits, toks)

	matchedLit := make(map[int]bool, len(lcs)) // pattern positions kept
	type anchor struct{ pat, tok int }
	anchors := make([]anchor, 0, len(lcs)+2)
	anchors = append(anchors, anchor{pat: -1, tok: -1})
	for _, pr := range lcs {
		matchedLit[litPos[pr.A]] = true
		anchors = append(anchors, anchor{pat: litPos[pr.A], tok: pr.B})
	}
	anchors = append(anchors, anchor{pat: len(row.Pattern), tok: len(toks)})

	var pattern []Elem
	for k := 0; k+1 < len(anchors); k++ {
		lo, hi := anchors[k], anchors[k+1]
		// Segment of pattern elements strictly between the anchors.
		segHasContent := hi.tok-lo.tok > 1 // target tokens inside segment
		var segVarID = -1
		litDemoted := false
		for i := lo.pat + 1; i < hi.pat; i++ {
			e := row.Pattern[i]
			if e.Var && segVarID == -1 {
				segVarID = e.ID
			}
			if !e.Var {
				litDemoted = true
			}
		}
		if lo.pat+1 < hi.pat || segHasContent {
			// Segment needs a placeholder if it had vars, demoted
			// literals, or extra target tokens.
			if segVarID == -1 && (litDemoted || segHasContent) {
				segVarID = ft.NumVars
				ft.NumVars++
			}
			if segVarID != -1 {
				pattern = append(pattern, Elem{Var: true, ID: segVarID})
			}
		}
		if hi.pat >= 0 && hi.pat < len(row.Pattern) {
			pattern = append(pattern, row.Pattern[hi.pat])
		}
	}
	row.Pattern = pattern
	// In place: alignment pairs each old row with exactly one new row, and
	// no map escapes Build before the last merge.
	row.PerTarget[target] = toks
}

// renumber assigns sequential placeholder ids (SV1, SV2, ...) across the
// template, in row order, and refreshes display names.
func (ft *FunctionTemplate) renumber() {
	next := 1
	seen := map[int]int{}
	for ri := range ft.Rows {
		for ei := range ft.Rows[ri].Pattern {
			e := &ft.Rows[ri].Pattern[ei]
			if !e.Var {
				continue
			}
			id, ok := seen[e.ID]
			if !ok {
				id = next
				seen[e.ID] = id
				next++
			}
			e.ID = id
			e.Text = fmt.Sprintf("SV%d", id)
		}
	}
	ft.NumVars = next - 1
}

// Values extracts a target's placeholder values for one row: a map from
// placeholder id to the target's token span (space-joined when longer than
// one token). present is false when the target lacks the statement. The
// returned map is memoized and shared — treat it as read-only.
func (ft *FunctionTemplate) Values(rowIdx int, target string) (vals map[int]string, present bool) {
	key := valsKey{row: rowIdx, target: target}
	ft.valsMu.Lock()
	if e, ok := ft.vals[key]; ok {
		ft.valsMu.Unlock()
		return e.vals, e.present
	}
	ft.valsMu.Unlock()
	vals, present = ft.valuesUncached(rowIdx, target)
	ft.valsMu.Lock()
	if ft.vals == nil {
		ft.vals = make(map[valsKey]valsEntry)
	}
	ft.vals[key] = valsEntry{vals: vals, present: present}
	ft.valsMu.Unlock()
	return vals, present
}

func (ft *FunctionTemplate) valuesUncached(rowIdx int, target string) (vals map[int]string, present bool) {
	row := &ft.Rows[rowIdx]
	toks, ok := row.PerTarget[target]
	if !ok {
		return nil, false
	}
	vals = make(map[int]string)
	lits, litPos := row.literalTokens()
	lcs := gumtree.TokenLCS(lits, toks)

	type anchor struct{ pat, tok int }
	anchors := make([]anchor, 0, len(lcs)+2)
	anchors = append(anchors, anchor{pat: -1, tok: -1})
	for _, pr := range lcs {
		anchors = append(anchors, anchor{pat: litPos[pr.A], tok: pr.B})
	}
	anchors = append(anchors, anchor{pat: len(row.Pattern), tok: len(toks)})

	for k := 0; k+1 < len(anchors); k++ {
		lo, hi := anchors[k], anchors[k+1]
		var varIDs []int
		for i := lo.pat + 1; i < hi.pat; i++ {
			if row.Pattern[i].Var {
				varIDs = append(varIDs, row.Pattern[i].ID)
			}
		}
		if len(varIDs) == 0 {
			continue
		}
		span := toks[lo.tok+1 : hi.tok]
		// Distribute tokens across the segment's placeholders: one each to
		// all but the last, remainder to the last.
		for vi, id := range varIDs {
			switch {
			case vi < len(varIDs)-1 && vi < len(span):
				vals[id] = span[vi]
			case vi == len(varIDs)-1 && vi <= len(span):
				vals[id] = strings.Join(span[vi:], " ")
			default:
				vals[id] = ""
			}
		}
	}
	// Placeholders from other rows are simply absent from the map.
	return vals, true
}

// Render instantiates the template for concrete placeholder values,
// producing statement lines. Rows whose include predicate returns false
// are skipped; missing values render the SV name (callers usually filter
// those out first).
func (ft *FunctionTemplate) Render(include func(row int) bool, value func(row, id int) (string, bool)) []string {
	var out []string
	for ri, row := range ft.Rows {
		if include != nil && !include(ri) {
			continue
		}
		var toks []string
		for _, e := range row.Pattern {
			if !e.Var {
				toks = append(toks, e.Text)
				continue
			}
			if value != nil {
				if v, ok := value(ri, e.ID); ok {
					if v != "" {
						toks = append(toks, strings.Fields(v)...)
					}
					continue
				}
			}
			toks = append(toks, e.Text)
		}
		out = append(out, JoinTokens(toks))
	}
	return out
}

// StatementText renders one target's statement for a row, or "" when the
// target lacks it.
func (ft *FunctionTemplate) StatementText(rowIdx int, target string) string {
	toks, ok := ft.Rows[rowIdx].PerTarget[target]
	if !ok {
		return ""
	}
	return JoinTokens(toks)
}

// CommonTokenCount returns |T_k^com| for a row: the number of literal
// (common-code) tokens.
func (ft *FunctionTemplate) CommonTokenCount(rowIdx int) int {
	n := 0
	for _, e := range ft.Rows[rowIdx].Pattern {
		if !e.Var {
			n++
		}
	}
	return n
}

// JoinTokens glues a token sequence back into compact C++-ish text.
func JoinTokens(toks []string) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && needSpace(toks[i-1], t) {
			b.WriteString(" ")
		}
		b.WriteString(t)
	}
	return b.String()
}

func needSpace(prev, cur string) bool {
	if prev == "" || cur == "" {
		return false
	}
	switch cur {
	case ";", ",", ")", "]", "::", ".", "->", "++", "--", ":":
		return false
	case "(", "[":
		// Call/index parens attach to the preceding name or closing
		// bracket; control-flow keywords keep their space.
		if prev == ")" || prev == "]" {
			return true && !identLike(prev)
		}
		if identLike(prev) && !controlKeyword(prev) {
			return false
		}
	}
	switch prev {
	case "(", "[", "::", ".", "->", "!", "~":
		return false
	}
	return true
}

func identLike(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func controlKeyword(s string) bool {
	switch s {
	case "if", "while", "switch", "for", "return", "case", "else", "do", "sizeof":
		return true
	}
	return false
}
