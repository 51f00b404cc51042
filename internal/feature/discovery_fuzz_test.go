package feature

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vega/internal/cpp"
	"vega/internal/tablegen"
	"vega/internal/template"
)

// The scan* functions below are Algorithm 1's discovery as it was before
// memoization: every question re-scans the tree's assignments, re-parses
// .td files and enums, and re-runs the camel-case expansion of partial
// matching. They are FuzzDiscoveryAgainstScan's reference for the
// memoized, indexed Select and TargetValues.

func scanSelect(e *Extractor, ft *template.FunctionTemplate, targets []string) *TemplateFeatures {
	tf := &TemplateFeatures{
		FT:       ft,
		VarProps: make(map[int][]int),
		Targets:  make(map[string]*TargetFeatures, len(targets)),
	}
	tf.Props = append(tf.Props, e.GlobalFeatureProps()...)
	type indDiscovery struct {
		prop      Property
		perTarget map[string]BoolVal
	}
	var indOrder []string
	indFound := map[string]*indDiscovery{}
	commonTokens := commonTokenSet(ft)
	for _, target := range targets {
		tgtDirs := TGTDirs(target)
		for _, tok := range commonTokens {
			name, method, site, ok := scanDiscoverIndependent(e, tok, tgtDirs)
			if !ok {
				continue
			}
			d := indFound[name]
			if d == nil {
				d = &indDiscovery{
					prop:      Property{Name: name, Kind: Independent, Method: method, IdentifiedSite: e.propSites[name]},
					perTarget: map[string]BoolVal{},
				}
				indFound[name] = d
				indOrder = append(indOrder, name)
			}
			if method != MethodCore {
				d.perTarget[target] = BoolVal{Value: true, UpdateSite: site}
				if d.prop.Method == MethodCore {
					d.prop.Method = method
				}
			}
		}
	}
	for _, name := range indOrder {
		if tf.PropIndex(name) >= 0 {
			continue
		}
		tf.Props = append(tf.Props, indFound[name].prop)
	}
	depIndex := map[string]int{}
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
					prop, ok := scanDiscoverDependent(e, vtok, target)
					if !ok {
						continue
					}
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
	for _, target := range targets {
		tf.Targets[target] = scanTargetValues(e, tf, target)
	}
	return tf
}

func scanTargetValues(e *Extractor, tf *TemplateFeatures, target string) *TargetFeatures {
	tgtDirs := TGTDirs(target)
	out := &TargetFeatures{Target: target, Bools: make(map[string]BoolVal), Deps: make(map[string]DepInfo)}
	for _, p := range tf.Props {
		switch p.Kind {
		case Independent:
			if p.Method == MethodCore {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: p.IdentifiedSite}
				continue
			}
			if name, m, site, ok := scanDiscoverIndependent(e, p.Name, tgtDirs); ok && name == p.Name && m != MethodCore {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: site}
			} else if site, ok := scanPartialAssignSite(e, p.Name, tgtDirs); ok {
				out.Bools[p.Name] = BoolVal{Value: true, UpdateSite: site}
			} else {
				out.Bools[p.Name] = BoolVal{Value: false}
			}
		case Dependent:
			out.Deps[p.Name] = scanDependentCandidates(e, p, target)
		}
	}
	return out
}

func scanDiscoverIndependent(e *Extractor, tok string, tgtDirs []string) (string, Method, string, bool) {
	if e.InPropList(tok) {
		if paths := e.Tree.FindToken(tok, tgtDirs); len(paths) > 0 {
			return tok, MethodToken, paths[0], true
		}
	}
	for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
		if a.IsStr && e.InPropList(a.LHS) && scanPartialMatch(tok, a.RHS) {
			return a.LHS, MethodPartial, a.Path, true
		}
	}
	if e.InPropList(tok) {
		return tok, MethodCore, e.propSites[tok], true
	}
	return "", 0, "", false
}

func scanPartialAssignSite(e *Extractor, prop string, tgtDirs []string) (string, bool) {
	for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
		if a.LHS == prop {
			return a.Path, true
		}
	}
	return "", false
}

func scanDiscoverDependent(e *Extractor, val, target string) (Property, bool) {
	tgtDirs := TGTDirs(target)
	if enumName, path, ok := e.Tree.EnumContaining(val, tgtDirs); ok {
		if e.InPropList(enumName) {
			return Property{Name: enumName, Kind: Dependent, Method: MethodEnum,
				IdentifiedSite: e.propSites[enumName], EnumName: enumName}, true
		}
		if core, ok := e.correlateEnum(enumName, path); ok {
			return Property{Name: core, Kind: Dependent, Method: MethodEnum,
				IdentifiedSite: e.propSites[core], EnumName: core}, true
		}
	}
	for _, la := range e.Tree.ListAssignmentsUnder(tgtDirs) {
		if !e.InPropList(la.LHS) {
			continue
		}
		for _, item := range la.Items {
			if item == val {
				return Property{Name: la.LHS, Kind: Dependent, Method: MethodList,
					IdentifiedSite: e.propSites[la.LHS]}, true
			}
		}
	}
	for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
		if a.RHS == val && e.InPropList(a.LHS) {
			return Property{Name: a.LHS, Kind: Dependent, Method: MethodAssign,
				IdentifiedSite: e.propSites[a.LHS]}, true
		}
	}
	if class, ok := scanRecordClass(e, scanRecords(e, tgtDirs), val); ok {
		return Property{Name: class, Kind: Dependent, Method: MethodRecord,
			IdentifiedSite: e.propSites[class], ClassName: class}, true
	}
	for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
		if a.IsStr && e.InPropList(a.LHS) && scanPartialMatch(val, a.RHS) {
			return Property{Name: a.LHS, Kind: Dependent, Method: MethodAssign,
				IdentifiedSite: e.propSites[a.LHS]}, true
		}
	}
	return Property{}, false
}

// scanParseTD parses a tree file from its text, bypassing the tree's cache.
func scanParseTD(e *Extractor, path string) (*tablegen.TDFile, bool) {
	content, _ := e.Tree.Content(path)
	td, err := tablegen.ParseTD(content)
	return td, err == nil
}

// scanRecords indexes the records of every .td file under tgtDirs and
// LLVMDIRs, parsed straight from their text.
func scanRecords(e *Extractor, tgtDirs []string) *recordMaps {
	rm := &recordMaps{classes: map[string][]string{}, defs: map[string][]string{}}
	for _, path := range e.append2(e.Tree.PathsUnder(tgtDirs), e.Tree.PathsUnder(e.LLVMDirs)) {
		if !strings.HasSuffix(path, ".td") {
			continue
		}
		td, ok := scanParseTD(e, path)
		if !ok {
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
}

func scanRecordClass(e *Extractor, rm *recordMaps, val string) (string, bool) {
	parents, ok := rm.defs[val]
	if !ok {
		return "", false
	}
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
		queue = append(queue, rm.classes[c]...)
	}
	return "", false
}

func scanTargetPaths(e *Extractor, target string) []string {
	var out []string
	ownPrefix := "lib/Target/" + target + "/"
	for _, path := range e.Tree.PathsUnder(TGTDirs(target)) {
		if strings.HasPrefix(path, ownPrefix) {
			out = append(out, path)
			continue
		}
		base := path[strings.LastIndex(path, "/")+1:]
		if strings.HasPrefix(strings.ToLower(base), strings.ToLower(target)) {
			out = append(out, path)
		}
	}
	return out
}

func scanDependentCandidates(e *Extractor, p Property, target string) DepInfo {
	tgtDirs := TGTDirs(target)
	own := map[string]bool{}
	for _, path := range scanTargetPaths(e, target) {
		own[path] = true
	}
	switch p.Method {
	case MethodEnum:
		for _, path := range scanTargetPaths(e, target) {
			content, _ := e.Tree.Content(path)
			if !strings.HasSuffix(path, ".h") && !strings.HasSuffix(path, ".def") {
				continue
			}
			enums, err := tablegen.ParseEnums(content)
			if err != nil {
				continue
			}
			if strings.HasSuffix(path, ".def") {
				if macros, err := tablegen.ParseDefFile(content); err == nil {
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
		rm := scanRecords(e, tgtDirs)
		for _, path := range scanTargetPaths(e, target) {
			if !strings.HasSuffix(path, ".td") {
				continue
			}
			td, ok := scanParseTD(e, path)
			if !ok {
				continue
			}
			for _, rec := range td.Records {
				if rec.Kind != "def" || rec.Name == "" {
					continue
				}
				if got, ok := scanRecordClass(e, rm, rec.Name); ok && got == p.ClassName {
					cands = append(cands, rec.Name)
					site = path
				}
			}
		}
		return DepInfo{Candidates: cands, UpdateSite: site}
	case MethodList:
		for _, la := range e.Tree.ListAssignmentsUnder(tgtDirs) {
			if la.LHS == p.Name && own[la.Path] {
				return DepInfo{Candidates: la.Items, UpdateSite: la.Path}
			}
		}
	case MethodAssign:
		var cands []string
		var site string
		seen := map[string]bool{}
		for _, a := range e.Tree.AssignmentsUnder(tgtDirs) {
			if own[a.Path] && a.LHS == p.Name && !seen[a.RHS] {
				seen[a.RHS] = true
				cands = append(cands, a.RHS)
				site = a.Path
			}
		}
		return DepInfo{Candidates: cands, UpdateSite: site}
	}
	return DepInfo{}
}

func scanPartialMatch(tok, str string) bool {
	nt, ns := normalize(tok), normalize(str)
	if nt == "" || ns == "" {
		return false
	}
	if len(nt) >= 4 && strings.Contains(ns, nt) {
		return true
	}
	if len(ns) >= 4 && strings.Contains(nt, ns) {
		return true
	}
	if len(ns) >= 3 && strings.HasPrefix(nt, ns) {
		return true
	}
	runs := camelRuns(tok)
	for i := 0; i < len(runs); i++ {
		for j := i; j < len(runs); j++ {
			sub := normalize(strings.Join(runs[i:j+1], ""))
			if len(sub) >= 4 && strings.Contains(ns, sub) {
				return true
			}
		}
	}
	return false
}

// fuzzImpl is a small getRelocType-shaped function whose statements a
// fuzz input fills; it parses whenever val and cond are expressions.
func fuzzImpl(target, cond, val string) string {
	return fmt.Sprintf(`unsigned %sELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  if (%s)
    return %s;
  return ELF::R_%s_NONE;
}`, target, cond, val, target)
}

// FuzzDiscoveryAgainstScan builds miniTree plus fuzzed description files
// for ARM, MIPS and the unseen RISCV (assignments, lists, enums and
// records) and requires the memoized, indexed discovery to answer
// exactly as the scanning reference above: Select's schema and values
// for relocTemplate and for a template built from fuzzed statements,
// TargetValues for RISCV, and the words of the fuzzed text asked
// directly of discoverIndependent/discoverDependent — twice, so the
// second answer comes from the memo.
func FuzzDiscoveryAgainstScan(f *testing.F) {
	f.Add(`OperandType = "OPERAND_PCREL"
def ARMCSR : CalleeSavedRegs { let SaveList = [R4, R5]; }
def MOVW : ARMInst { let AsmString = "movw"; }`,
		`Name = "MipsPCRel"
def LUI2 : MipsInst;`,
		`enum Fixups { fixup_arm_pcrel = FirstTargetFixupKind, NumTargetFixupKinds };
enum VariantKind { VK_ARM_LO16 };`,
		"IsPCRel", "ELF::R_ARM_MOVT_PREL")
	f.Add(`AsmName = "r0"
OperandType = "OPERAND_REG"`, `SaveList = [S0, S1]
def ADDIU : Instruction;`, `enum ELF_RELOC { R_MIPS_26 };`,
		"Kind == 2", "MOVW")
	f.Add(`Name = "RI"`, `def X : Target;`, ``, "1", "Fixup_ARM_PCRel")
	f.Add(`{`, `def Foo {`, `enum {`, "", "")
	f.Fuzz(func(t *testing.T, armTD, mipsTD, header, cond, val string) {
		// The reference re-parses every .td file per question and expands
		// camel runs cubically: keep inputs small enough to stay fast.
		// Likewise only the first 16 distinct words are asked directly.
		if len(armTD)+len(mipsTD)+len(header)+len(cond)+len(val) > 2048 {
			t.Skip("input too large for the scanning reference")
		}
		tree := miniTree()
		tree.Add("lib/Target/ARM/ARMFuzz.td", armTD)
		tree.Add("lib/Target/MIPS/MIPSFuzz.td", mipsTD)
		tree.Add("lib/Target/ARM/ARMFuzz.h", header)
		tree.Add("lib/Target/RISCV/RISCVFuzz.td", mipsTD+"\n"+armTD)
		tree.Add("lib/Target/RISCV/RISCVFuzz.h", header)
		e := NewExtractor(tree, nil)
		ref := NewExtractor(tree, nil)
		if !reflect.DeepEqual(e.propSites, ref.propSites) {
			t.Fatal("PropList not deterministic")
		}
		targets := []string{"ARM", "MIPS"}

		fts := []*template.FunctionTemplate{relocTemplate(t)}
		armFn, err1 := cpp.ParseFunction(fuzzImpl("ARM", cond, val))
		mipsFn, err2 := cpp.ParseFunction(fuzzImpl("MIPS", "IsPCRel", val+" + 1"))
		if err1 == nil && err2 == nil {
			ft, err := template.Build("getRelocType", []template.Impl{
				template.NewImpl("ARM", armFn), template.NewImpl("MIPS", mipsFn),
			})
			if err == nil {
				fts = append(fts, ft)
			}
		}
		for _, ft := range fts {
			for round := 0; round < 2; round++ {
				got, want := e.Select(ft, targets), scanSelect(ref, ft, targets)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: Select differs from the scan:\n got %+v\nwant %+v", round, got, want)
				}
				gotRV, wantRV := e.TargetValues(got, "RISCV"), scanTargetValues(ref, want, "RISCV")
				if !reflect.DeepEqual(gotRV, wantRV) {
					t.Fatalf("round %d: RISCV TargetValues differ:\n got %+v\nwant %+v", round, gotRV, wantRV)
				}
			}
		}

		toks, err := cpp.Lex(armTD + "\n" + mipsTD + "\n" + header + "\n" + cond + "\n" + val)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, tok := range toks {
			word := strings.Trim(tok.Text, "\"")
			if seen[word] || len(seen) == 16 {
				continue
			}
			seen[word] = true
			for _, target := range []string{"ARM", "MIPS", "RISCV"} {
				name, m, site, ok := scanDiscoverIndependent(ref, word, TGTDirs(target))
				p, pok := scanDiscoverDependent(ref, word, target)
				var cands DepInfo
				if pok {
					cands = scanDependentCandidates(ref, p, target)
				}
				for round := 0; round < 2; round++ {
					if r := e.discoverIndependent(word, target); r != (indResult{name, m, site, ok}) {
						t.Fatalf("discoverIndependent(%q, %s) = %+v, scan %v %v %v %v", word, target, r, name, m, site, ok)
					}
					if d := e.discoverDependent(word, target); d != (depResult{p, pok}) {
						t.Fatalf("discoverDependent(%q, %s) = %+v, scan %+v %v", word, target, d, p, pok)
					}
					if got := e.dependentCandidates(p, target); pok && !reflect.DeepEqual(got, cands) {
						t.Fatalf("dependentCandidates(%+v, %s) = %+v, scan %+v", p, target, got, cands)
					}
				}
				for _, a := range tree.AssignmentsUnder(TGTDirs(target)) {
					if got, want := PartialMatch(word, a.RHS), scanPartialMatch(word, a.RHS); got != want {
						t.Fatalf("PartialMatch(%q, %q) = %v, scan %v", word, a.RHS, got, want)
					}
				}
			}
		}
	})
}
