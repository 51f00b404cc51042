package feature

import (
	"strings"

	"vega/internal/cpp"
	"vega/internal/tablegen"
	"vega/internal/template"
)

// GlobalFeatureProps lists the subtarget feature bits every template's
// schema carries regardless of its own tokens. The paper's feature vector
// spans all 345 properties globally; these flags are the slice of it that
// predicts whole-function presence (a DIS function exists only on
// HasDisassembler targets even though its body never names the bit).
func (e *Extractor) GlobalFeatureProps() []Property {
	var out []Property
	for _, name := range []string{
		"HasVariantKind", "HasHardwareLoop", "HasSIMD", "HasRealtimeISA",
		"HasDelaySlots", "HasCmpFlags", "IsBigEndian", "HasDisassembler",
		"HasFramePointer", "HasReturnAddressReg",
	} {
		if !e.InPropList(name) {
			continue
		}
		out = append(out, Property{
			Name: name, Kind: Independent, Method: MethodToken,
			IdentifiedSite: e.propSites[name],
		})
	}
	return out
}

// Select runs Algorithm 1 over a function template for a set of training
// targets, producing the template's property schema and every target's
// values.
func (e *Extractor) Select(ft *template.FunctionTemplate, targets []string) *TemplateFeatures {
	tf := &TemplateFeatures{
		FT:       ft,
		VarProps: make(map[int][]int),
		Targets:  make(map[string]*TargetFeatures, len(targets)),
	}
	tf.Props = append(tf.Props, e.GlobalFeatureProps()...)

	// --- independent properties over the common code (lines 8-24) ---
	// First pass: decide, per candidate token, which discovery case hits
	// on each target; tokens hit by cases 1/2 anywhere are "specialized",
	// tokens hit only by case 3 are universal.
	type indDiscovery struct {
		prop      Property
		perTarget map[string]BoolVal
	}
	var indOrder []string
	indFound := map[string]*indDiscovery{}

	commonTokens := commonTokenSet(ft)
	for _, target := range targets {
		for _, tok := range commonTokens {
			r := e.discoverIndependent(tok, target)
			if !r.ok {
				continue
			}
			name, method, site := r.name, r.method, r.site
			d := indFound[name]
			if d == nil {
				d = &indDiscovery{
					prop: Property{
						Name:           name,
						Kind:           Independent,
						Method:         method,
						IdentifiedSite: e.propSites[name],
					},
					perTarget: map[string]BoolVal{},
				}
				indFound[name] = d
				indOrder = append(indOrder, name)
			}
			if method != MethodCore {
				// Specialized hit for this target overrides the universal
				// default and upgrades the property's method.
				d.perTarget[target] = BoolVal{Value: true, UpdateSite: site}
				if d.prop.Method == MethodCore {
					d.prop.Method = method
				}
			}
		}
	}
	for _, name := range indOrder {
		if tf.PropIndex(name) >= 0 {
			continue // already carried as a global feature property
		}
		d := indFound[name]
		tf.Props = append(tf.Props, d.prop)
	}

	// --- dependent properties over placeholders (lines 25-40) ---
	type depDiscovery struct {
		prop Property
	}
	depIndex := map[string]int{} // prop name -> index in tf.Props
	for ri := range ft.Rows {
		ids := ft.Rows[ri].VarIDs()
		if len(ids) == 0 {
			continue
		}
		for _, target := range targets {
			vals, ok := ft.Values(ri, target)
			if !ok {
				continue
			}
			for _, id := range ids {
				val, ok := vals[id]
				if !ok || val == "" {
					continue
				}
				for _, vtok := range strings.Fields(val) {
					vtok = strings.Trim(vtok, "\"")
					r := e.discoverDependent(vtok, target)
					if !r.ok {
						continue
					}
					prop := r.prop
					pi, exists := depIndex[prop.Name]
					if !exists {
						pi = len(tf.Props)
						depIndex[prop.Name] = pi
						tf.Props = append(tf.Props, prop)
					}
					if !containsInt(tf.VarProps[id], pi) {
						tf.VarProps[id] = append(tf.VarProps[id], pi)
					}
				}
			}
		}
	}

	// --- per-target values ---
	for _, target := range targets {
		tf.Targets[target] = e.TargetValues(tf, target)
	}
	return tf
}

// TargetValues resolves every property of the schema against one target's
// description files. It works for training targets and unseen ones alike —
// this is what Stage 3 calls for a new target. The result's
// DepInfo.Candidates slices are shared with the Extractor's memo and with
// every other caller: read-only.
func (e *Extractor) TargetValues(tf *TemplateFeatures, target string) *TargetFeatures {
	out := &TargetFeatures{
		Target: target,
		Bools:  make(map[string]BoolVal),
		Deps:   make(map[string]DepInfo),
	}
	for _, p := range tf.Props {
		switch p.Kind {
		case Independent:
			if p.Method == MethodCore {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: p.IdentifiedSite}
				continue
			}
			if r := e.discoverIndependent(p.Name, target); r.ok && r.name == p.Name && r.method != MethodCore {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: r.site}
			} else if site, ok := e.partialAssignSite(p.Name, target); ok {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: site}
			} else {
				out.Bools[p.Name] = BoolVal{Value: false}
			}
		case Dependent:
			out.Deps[p.Name] = e.dependentCandidates(p, target)
		}
	}
	return out
}

// commonTokenSet lists the distinct literal identifier tokens of the
// template's common code, in first-appearance order.
func commonTokenSet(ft *template.FunctionTemplate) []string {
	seen := map[string]bool{}
	var out []string
	for _, row := range ft.Rows {
		for _, el := range row.Pattern {
			if el.Var || !isIdent(el.Text) || cpp.IsKeywordText(el.Text) {
				continue
			}
			if !seen[el.Text] {
				seen[el.Text] = true
				out = append(out, el.Text)
			}
		}
	}
	return out
}

// targetIndex is what discovery reads of one target's description
// files, gathered once per Extractor and target.
type targetIndex struct {
	target string
	dirs   []string // TGTDirs(target)
	// paths lists targetPaths(target); own is the same set.
	paths []string
	own   map[string]bool
	// propAssigns are the assignments under dirs whose LHS is in the
	// PropList, in tree order; strAssigns is their string-valued subset
	// with each RHS normalized once for partial matching.
	propAssigns []tablegen.Assignment
	strAssigns  []normAssign
}

// normAssign is a string assignment with its normalized RHS.
type normAssign struct {
	lhs, path, norm string
}

// targetIndex returns the target's index, building it on first use.
func (e *Extractor) targetIndex(target string) *targetIndex {
	return e.targets.get(target, func() *targetIndex {
		ti := &targetIndex{target: target, dirs: TGTDirs(target), own: map[string]bool{}}
		ti.paths = e.targetPaths(target, ti.dirs)
		for _, path := range ti.paths {
			ti.own[path] = true
		}
		for _, a := range e.Tree.AssignmentsUnder(ti.dirs) {
			if !e.InPropList(a.LHS) {
				continue
			}
			ti.propAssigns = append(ti.propAssigns, a)
			if a.IsStr {
				ti.strAssigns = append(ti.strAssigns, normAssign{lhs: a.LHS, path: a.Path, norm: normalize(a.RHS)})
			}
		}
		return ti
	})
}

// matcher returns tok's prepared PartialMatch token side.
func (e *Extractor) matcher(tok string) *tokenMatcher {
	return e.matchers.get(tok, func() *tokenMatcher { return newTokenMatcher(tok) })
}

// indResult is one discoverIndependent answer.
type indResult struct {
	name   string
	method Method
	site   string
	ok     bool
}

// discoverIndependent applies the three cases of lines 8-24 to one token.
func (e *Extractor) discoverIndependent(tok, target string) indResult {
	return e.ind.get(tokenTarget{tok, target}, func() indResult {
		ti := e.targetIndex(target)
		// Case 1: token occurs under TGTDIRS and is a candidate property.
		if e.InPropList(tok) {
			if paths := e.Tree.FindToken(tok, ti.dirs); len(paths) > 0 {
				return indResult{tok, MethodToken, paths[0], true}
			}
		}
		// Case 2: partial match against assignment RHS under TGTDIRS.
		if a, ok := e.partialAssign(tok, ti); ok {
			return indResult{a.lhs, MethodPartial, a.path, true}
		}
		// Case 3: declared only in LLVMDIRs.
		if e.InPropList(tok) {
			return indResult{tok, MethodCore, e.propSites[tok], true}
		}
		return indResult{}
	})
}

// partialAssign finds the first string assignment "prop = str" under the
// target's TGTDIRS whose RHS partially matches tok, with prop in the
// candidate set.
func (e *Extractor) partialAssign(tok string, ti *targetIndex) (normAssign, bool) {
	m := e.matcher(tok)
	for _, a := range ti.strAssigns {
		if m.match(a.norm) {
			return a, true
		}
	}
	return normAssign{}, false
}

// partialAssignSite checks whether the property itself is assigned under
// the target's TGTDIRS ("OperandType = ..." present for this target).
func (e *Extractor) partialAssignSite(prop, target string) (string, bool) {
	site := e.sites.get(tokenTarget{prop, target}, func() string {
		for _, a := range e.Tree.AssignmentsUnder(TGTDirs(target)) {
			if a.LHS == prop {
				return a.Path
			}
		}
		return ""
	})
	return site, site != ""
}

// depResult is one discoverDependent answer.
type depResult struct {
	prop Property
	ok   bool
}

// discoverDependent applies lines 25-40 to one placeholder value token.
func (e *Extractor) discoverDependent(val, target string) depResult {
	return e.dep.get(tokenTarget{val, target}, func() depResult {
		prop, ok := e.discoverDependentScan(val, e.targetIndex(target))
		return depResult{prop, ok}
	})
}

// discoverDependentScan computes discoverDependent.
func (e *Extractor) discoverDependentScan(val string, ti *targetIndex) (Property, bool) {
	tgtDirs := ti.dirs
	// Case 1a: enum membership under TGTDIRs.
	if enumName, path, ok := e.Tree.EnumContaining(val, tgtDirs); ok {
		if e.InPropList(enumName) {
			return Property{
				Name: enumName, Kind: Dependent, Method: MethodEnum,
				IdentifiedSite: e.propSites[enumName], EnumName: enumName,
			}, true
		}
		// Correlate through member initializers with an LLVMDIRs enum
		// (Fixups -> MCFixupKind via FirstTargetFixupKind).
		if core, ok := e.correlateEnum(enumName, path); ok {
			return Property{
				Name: core, Kind: Dependent, Method: MethodEnum,
				IdentifiedSite: e.propSites[core], EnumName: core,
			}, true
		}
	}
	// Case 1b: element of a TableGen list assignment "prop = [..., val, ...]".
	for _, la := range e.Tree.ListAssignmentsUnder(tgtDirs) {
		if !e.InPropList(la.LHS) {
			continue
		}
		for _, item := range la.Items {
			if item == val {
				return Property{
					Name: la.LHS, Kind: Dependent, Method: MethodList,
					IdentifiedSite: e.propSites[la.LHS],
				}, true
			}
		}
	}
	// Case 1c: exact assignment "prop = val".
	for _, a := range ti.propAssigns {
		if a.RHS == val {
			return Property{
				Name: a.LHS, Kind: Dependent, Method: MethodAssign,
				IdentifiedSite: e.propSites[a.LHS],
			}, true
		}
	}
	// Case 1d: TableGen record whose class chain reaches an LLVMDIRs class.
	if class, ok := e.recordClass(val, ti); ok {
		return Property{
			Name: class, Kind: Dependent, Method: MethodRecord,
			IdentifiedSite: e.propSites[class], ClassName: class,
		}, true
	}
	// Case 2: partial match against assignment RHS.
	if a, ok := e.partialAssign(val, ti); ok {
		return Property{
			Name: a.lhs, Kind: Dependent, Method: MethodAssign,
			IdentifiedSite: e.propSites[a.lhs],
		}, true
	}
	return Property{}, false
}

// correlateEnum maps a target enum to the LLVMDIRs enum its member
// initializers reference.
func (e *Extractor) correlateEnum(enumName, path string) (string, bool) {
	content, _ := e.Tree.Content(path)
	enums, err := tablegen.ParseEnums(content)
	if err != nil {
		return "", false
	}
	llvmEnums := e.Tree.EnumsUnder(e.LLVMDirs)
	corePaths := e.Tree.PathsUnder(e.LLVMDirs)
	for _, en := range enums {
		if en.Name != enumName {
			continue
		}
		for _, m := range en.Members {
			if m.Value == "" {
				continue
			}
			for _, ref := range strings.Fields(m.Value) {
				// Core enums in path order, so a reference two core enums
				// declare resolves the same way every time.
				for _, corePath := range corePaths {
					for _, ce := range llvmEnums[corePath] {
						if ce.Has(ref) {
							return ce.Name, true
						}
					}
				}
			}
		}
	}
	return "", false
}

// recordsFor builds (and caches) the class/def indexes of one target's
// TGTDIRS plus LLVMDIRS.
func (e *Extractor) recordsFor(ti *targetIndex) *recordMaps {
	return e.records.get(ti.target, func() *recordMaps {
		rm := &recordMaps{classes: map[string][]string{}, defs: map[string][]string{}}
		for _, path := range e.append2(e.Tree.PathsUnder(ti.dirs), e.Tree.PathsUnder(e.LLVMDirs)) {
			if !strings.HasSuffix(path, ".td") {
				continue
			}
			td, err := e.Tree.TD(path)
			if err != nil {
				continue
			}
			for _, rec := range td.Records {
				if rec.Kind == "class" {
					rm.classes[rec.Name] = rec.Parents
				} else if rec.Name != "" {
					rm.defs[rec.Name] = rec.Parents
				}
			}
		}
		return rm
	})
}

// recordClass resolves a def name under the target's TGTDIRS to its root
// LLVMDIRs class.
func (e *Extractor) recordClass(val string, ti *targetIndex) (string, bool) {
	rm := e.recordsFor(ti)
	classes, defs := rm.classes, rm.defs
	parents, ok := defs[val]
	if !ok {
		return "", false
	}
	// Walk the class chain breadth-first to the first candidate class.
	queue := append([]string(nil), parents...)
	seen := map[string]bool{}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if seen[c] {
			continue
		}
		seen[c] = true
		if e.InPropList(c) {
			return c, true
		}
		queue = append(queue, classes[c]...)
	}
	return "", false
}

func (e *Extractor) append2(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// targetPaths lists the description files that belong to one target:
// everything under lib/Target/<T>, plus files in shared TGTDIRs whose base
// name carries the target's name (llvm/BinaryFormat/ELFRelocs/<T>.def).
func (e *Extractor) targetPaths(target string, tgtDirs []string) []string {
	var out []string
	ownPrefix := "lib/Target/" + target + "/"
	lowerTarget := strings.ToLower(target)
	for _, path := range e.Tree.PathsUnder(tgtDirs) {
		if strings.HasPrefix(path, ownPrefix) {
			out = append(out, path)
			continue
		}
		base := path[strings.LastIndex(path, "/")+1:]
		if strings.HasPrefix(strings.ToLower(base), lowerTarget) {
			out = append(out, path)
		}
	}
	return out
}

// dependentCandidates mines a target's TgtValSet for one dependent
// property, once per (property, target).
func (e *Extractor) dependentCandidates(p Property, target string) DepInfo {
	return e.cands.get(propTarget{p, target}, func() DepInfo {
		return e.dependentCandidatesScan(p, e.targetIndex(target))
	})
}

// dependentCandidatesScan computes dependentCandidates.
func (e *Extractor) dependentCandidatesScan(p Property, ti *targetIndex) DepInfo {
	tgtDirs := ti.dirs
	switch p.Method {
	case MethodEnum:
		// Find the enum under TGTDIRs correlated with p.EnumName: same
		// name, or member initializers referencing it.
		for _, path := range ti.paths {
			content, _ := e.Tree.Content(path)
			if !strings.HasSuffix(path, ".h") && !strings.HasSuffix(path, ".def") {
				continue
			}
			enums, err := tablegen.ParseEnums(content)
			if err != nil {
				continue
			}
			if strings.HasSuffix(path, ".def") {
				macros, err := tablegen.ParseDefFile(content)
				if err == nil {
					var en tablegen.Enum
					for _, m := range macros {
						en.Name = m.Name
						if len(m.Args) > 0 {
							en.Members = append(en.Members, tablegen.EnumMember{Name: m.Args[0]})
						}
					}
					if en.Name != "" {
						enums = append(enums, en)
					}
				}
			}
			for _, en := range enums {
				if en.Name == p.EnumName || e.enumReferences(en, p.EnumName) {
					return DepInfo{Candidates: realMembers(en), UpdateSite: path}
				}
			}
		}
	case MethodRecord:
		var cands []string
		var site string
		for _, path := range ti.paths {
			if !strings.HasSuffix(path, ".td") {
				continue
			}
			td, err := e.Tree.TD(path)
			if err != nil {
				continue
			}
			for _, rec := range td.Records {
				if rec.Kind != "def" || rec.Name == "" {
					continue
				}
				if _, ok := e.recordClassIs(rec.Name, p.ClassName, ti); ok {
					cands = append(cands, rec.Name)
					site = path
				}
			}
		}
		return DepInfo{Candidates: cands, UpdateSite: site}
	case MethodList:
		for _, la := range e.Tree.ListAssignmentsUnder(tgtDirs) {
			if la.LHS == p.Name && ti.own[la.Path] {
				return DepInfo{Candidates: la.Items, UpdateSite: la.Path}
			}
		}
	case MethodAssign:
		var cands []string
		var site string
		seen := map[string]bool{}
		for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
			if !ti.own[a.Path] {
				continue
			}
			if a.LHS == p.Name && !seen[a.RHS] {
				seen[a.RHS] = true
				cands = append(cands, a.RHS)
				site = a.Path
			}
		}
		return DepInfo{Candidates: cands, UpdateSite: site}
	}
	return DepInfo{}
}

// enumReferences reports whether any member initializer of en references a
// member of the named LLVMDIRs enum.
func (e *Extractor) enumReferences(en tablegen.Enum, coreEnum string) bool {
	coreMembers := e.Tree.EnumMembers(coreEnum, e.LLVMDirs)
	if len(coreMembers) == 0 {
		return false
	}
	coreSet := map[string]bool{}
	for _, m := range coreMembers {
		coreSet[m] = true
	}
	for _, m := range en.Members {
		for _, ref := range strings.Fields(m.Value) {
			if coreSet[ref] {
				return true
			}
		}
	}
	return false
}

// recordClassIs checks whether def's class chain reaches class.
func (e *Extractor) recordClassIs(def, class string, ti *targetIndex) (string, bool) {
	got, ok := e.recordClass(def, ti)
	if ok && got == class {
		return got, true
	}
	return "", false
}

// realMembers drops bookkeeping enumerators (counts, sentinels) from a
// candidate set.
func realMembers(en tablegen.Enum) []string {
	var out []string
	for _, m := range en.Members {
		if strings.Contains(m.Name, "Num") || strings.HasPrefix(m.Name, "Last") ||
			strings.HasPrefix(m.Name, "First") {
			continue
		}
		out = append(out, m.Name)
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// PartialMatch implements the paper's loose string matching: descriptive
// identifiers like IsPCRel match values like "OPERAND_PCREL" because a
// camel-case run of one, normalized, is a substring of the other.
func PartialMatch(tok, str string) bool {
	return newTokenMatcher(tok).match(normalize(str))
}

// tokenMatcher is PartialMatch with the token side prepared once: the
// normalized token and the normalized concatenations of its contiguous
// camel-case runs that are long enough to count. Discovery matches one
// token against every string assignment of a target, so the preparation
// is shared (Extractor.matcher) and matching allocates nothing.
type tokenMatcher struct {
	norm string
	// subs holds, per starting run, the shortest concatenation of runs
	// from it that normalizes to 4 or more bytes. normalize works byte by
	// byte, so every longer concatenation from the same run extends that
	// one, and a value containing the longer also contains the shorter:
	// these subs match exactly when all of them would.
	subs []string
}

func newTokenMatcher(tok string) *tokenMatcher {
	m := &tokenMatcher{norm: normalize(tok)}
	runs := camelRuns(tok)
	for i := range runs {
		for j := i; j < len(runs); j++ {
			if sub := normalize(strings.Join(runs[i:j+1], "")); len(sub) >= 4 {
				m.subs = append(m.subs, sub)
				break
			}
		}
	}
	return m
}

// match reports PartialMatch(tok, str) given ns = normalize(str).
func (m *tokenMatcher) match(ns string) bool {
	nt := m.norm
	if nt == "" || ns == "" {
		return false
	}
	if len(nt) >= 4 && strings.Contains(ns, nt) {
		return true
	}
	if len(ns) >= 4 && strings.Contains(nt, ns) {
		return true
	}
	// A short value that prefixes the token still matches: "ARM" explains
	// ARMELFObjectWriter.
	if len(ns) >= 3 && strings.HasPrefix(nt, ns) {
		return true
	}
	// Contiguous camel-case runs of tok.
	for _, sub := range m.subs {
		if strings.Contains(ns, sub) {
			return true
		}
	}
	return false
}

// normalize uppercases and strips separators. Byte-wise: ASCII letters
// are uppercased in place and non-ASCII bytes pass through unchanged,
// which is exactly what the rune-wise version produced.
func normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ' ' {
			continue
		}
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		b.WriteByte(c)
	}
	return b.String()
}

// camelRuns splits CamelCase and snake_case identifiers into runs.
func camelRuns(s string) []string {
	var runs []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			runs = append(runs, cur.String())
			cur.Reset()
		}
	}
	rs := []rune(s)
	isUp := func(r rune) bool { return r >= 'A' && r <= 'Z' }
	isLo := func(r rune) bool { return r >= 'a' && r <= 'z' }
	for i, r := range rs {
		switch {
		case r == '_':
			flush()
		case isUp(r):
			// Boundaries: lower->Upper ("IsPC"), and Upper->Upper+lower
			// ("PCRel" splits before "Rel").
			if i > 0 && isLo(rs[i-1]) {
				flush()
			} else if i > 0 && isUp(rs[i-1]) && i+1 < len(rs) && isLo(rs[i+1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return runs
}
