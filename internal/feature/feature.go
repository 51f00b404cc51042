// Package feature implements VEGA's feature selection (Algorithm 1):
// mining Boolean target-independent properties for a template's common
// code and string target-dependent properties for its placeholders, from
// the LLVM-provided code under LLVMDIRs and the per-target description
// files under TGTDIRs.
//
// Every property is anchored at two locations: its identified site (the
// declaration in LLVMDIRs) and its update site (where a target defines or
// specializes it, in TGTDIRs — or LLVMDIRs for universal properties).
// A property discovered here is exactly what a new target's description
// files can answer, which is what makes backend generation possible from
// those files alone.
package feature

import (
	"sort"
	"strings"
	"sync"

	"vega/internal/tablegen"
	"vega/internal/template"
)

// Kind distinguishes the two property families.
type Kind int

// Property kinds.
const (
	// Independent properties are Booleans over the common code.
	Independent Kind = iota
	// Dependent properties are strings filling placeholders.
	Dependent
)

func (k Kind) String() string {
	if k == Independent {
		return "independent"
	}
	return "dependent"
}

// Method records how a property was discovered, so the same discovery can
// be re-run against a new target's description files.
type Method int

// Discovery methods.
const (
	// MethodToken: the token itself occurs in TGTDIRs (Algorithm 1 lines 10-13).
	MethodToken Method = iota
	// MethodPartial: the token partially matches the RHS of an assignment
	// "prop = str" in TGTDIRs (lines 14-17).
	MethodPartial
	// MethodCore: the token occurs only in LLVMDIRs (lines 18-20);
	// universal, true for every target.
	MethodCore
	// MethodEnum: a placeholder value is a member of a target enum
	// correlated with an LLVMDIRs enum (lines 29-32).
	MethodEnum
	// MethodAssign: a placeholder value is the RHS of "prop = value"
	// in TGTDIRs (lines 29-32, assignment form).
	MethodAssign
	// MethodRecord: a placeholder value names a TableGen def whose class
	// chain reaches an LLVMDIRs class (records become enums via TableGen).
	MethodRecord
	// MethodList: a placeholder value is an element of a TableGen list
	// assignment "prop = [a, b, c]" in TGTDIRs (CalleeSavedRegs et al.).
	MethodList
)

func (m Method) String() string {
	switch m {
	case MethodToken:
		return "token"
	case MethodPartial:
		return "partial"
	case MethodCore:
		return "core"
	case MethodEnum:
		return "enum"
	case MethodAssign:
		return "assign"
	case MethodRecord:
		return "record"
	case MethodList:
		return "list"
	}
	return "?"
}

// Property is one mined feature.
type Property struct {
	Name           string
	Kind           Kind
	Method         Method
	IdentifiedSite string
	// EnumName is the LLVMDIRs enum correlated with MethodEnum properties.
	EnumName string
	// ClassName is the LLVMDIRs TableGen class for MethodRecord properties.
	ClassName string
}

// BoolVal is a target's value for an independent property.
type BoolVal struct {
	Value      bool
	UpdateSite string
}

// DepInfo is a target's information for a dependent property: the ordered
// candidate value set mined from its description files (the paper's
// TgtValSet) and where it was found.
type DepInfo struct {
	Candidates []string
	UpdateSite string
}

// N returns |TgtValSet|, the choice count used by confidence scoring.
func (d DepInfo) N() int { return len(d.Candidates) }

// TargetFeatures holds one target's property values for one template.
type TargetFeatures struct {
	Target string
	Bools  map[string]BoolVal
	Deps   map[string]DepInfo
}

// TemplateFeatures is the full feature schema of a function template plus
// per-target values.
type TemplateFeatures struct {
	FT *template.FunctionTemplate
	// Props lists the template's properties: independent first, then
	// dependent, each deduped by name, in discovery order.
	Props []Property
	// VarProps maps a placeholder id to the indexes (into Props) of the
	// dependent properties that explain it.
	VarProps map[int][]int
	// Targets holds per-target values for every training target.
	Targets map[string]*TargetFeatures
}

// PropIndex returns the index of the named property, or -1.
func (tf *TemplateFeatures) PropIndex(name string) int {
	for i, p := range tf.Props {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// DependentProps returns the dependent subset, in order.
func (tf *TemplateFeatures) DependentProps() []Property {
	var out []Property
	for _, p := range tf.Props {
		if p.Kind == Dependent {
			out = append(out, p)
		}
	}
	return out
}

// Extractor mines properties from a source tree laid out with LLVM
// conventions. It assumes the tree no longer changes: its PropList and
// discovery memos describe the tree as it was when the Extractor was
// built.
//
// Every discovery answer is a pure function of (token or property,
// target) and is memoized here, so each Algorithm 1 question is asked
// once per target however many groups (Select) or generation tasks
// (TargetValues) ask it. Stage 1's templatization workers and Stage 3's
// generation workers share one Extractor, so every memo is mutex-guarded.
// Answers are shared between callers: in particular DepInfo.Candidates
// slices are read-only.
type Extractor struct {
	Tree     *tablegen.SourceTree
	LLVMDirs []string

	propSites map[string]string // PropList: identifier -> identified site

	targets  memo[string, *targetIndex]   // target -> its description files, indexed
	ind      memo[tokenTarget, indResult] // discoverIndependent
	sites    memo[tokenTarget, string]    // partialAssignSite; "" when unassigned
	dep      memo[tokenTarget, depResult] // discoverDependent
	cands    memo[propTarget, DepInfo]    // dependentCandidates
	matchers memo[string, *tokenMatcher]  // token -> PartialMatch's token side
	records  memo[string, *recordMaps]    // target -> TableGen records
}

// memo is a mutex-guarded cache of a pure function. A miss computes
// outside the lock, so two goroutines may compute the same entry; the
// computation is deterministic, so either result may be kept.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// get returns the memoized value for k, computing it on first use.
func (c *memo[K, V]) get(k K, compute func() V) V {
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]V)
	}
	c.m[k] = v
	c.mu.Unlock()
	return v
}

// tokenTarget keys a discovery answer for one token on one target.
type tokenTarget struct{ tok, target string }

// propTarget keys a target's candidate values for one property.
type propTarget struct {
	p      Property
	target string
}

// recordMaps indexes one target's TableGen records (plus the LLVM core's).
type recordMaps struct {
	classes map[string][]string // class name -> parents
	defs    map[string][]string // def name -> parents
}

// DefaultLLVMDirs are the paper's LLVMDIRs.
func DefaultLLVMDirs() []string {
	return []string{"llvm/CodeGen", "llvm/MC", "llvm/BinaryFormat", "llvm/Target"}
}

// TGTDirs returns the paper's TGTDIRs for a target.
func TGTDirs(target string) []string {
	return []string{"lib/Target/" + target, "llvm/BinaryFormat/ELFRelocs"}
}

// NewExtractor builds an extractor and its PropCandidateSet over LLVMDIRs.
func NewExtractor(tree *tablegen.SourceTree, llvmDirs []string) *Extractor {
	if llvmDirs == nil {
		llvmDirs = DefaultLLVMDirs()
	}
	e := &Extractor{Tree: tree, LLVMDirs: llvmDirs}
	e.buildPropList()
	return e
}

// buildPropList gathers class names, enum names and global variables
// declared under LLVMDIRs (Algorithm 1 line 5).
func (e *Extractor) buildPropList() {
	e.propSites = make(map[string]string)
	add := func(name, path string) {
		if name == "" {
			return
		}
		if _, ok := e.propSites[name]; !ok {
			e.propSites[name] = path
		}
	}
	enums := e.Tree.EnumsUnder(e.LLVMDirs)
	for _, path := range e.Tree.PathsUnder(e.LLVMDirs) {
		// Enum names (and the enums' own members count as locatable but
		// not as properties).
		if strings.HasSuffix(path, ".h") {
			for _, en := range enums[path] {
				add(en.Name, path)
			}
			// Class names: "class X" / "struct X".
			content, _ := e.Tree.Content(path)
			for _, name := range classNames(content) {
				add(name, path)
			}
		}
		if strings.HasSuffix(path, ".td") {
			td, err := e.Tree.TD(path)
			if err != nil {
				continue
			}
			for _, rec := range td.Records {
				if rec.Kind == "class" {
					add(rec.Name, path)
					// Field names of LLVM-core classes are the paper's
					// "global variables" (OperandType, Name, ...).
					for _, f := range rec.Fields {
						add(f.Name, path)
					}
				}
			}
			for _, a := range td.TopAssigns {
				add(a.Name, path)
			}
		}
	}
}

// classNames scans header text for "class X"/"struct X" declarations.
func classNames(content string) []string {
	var out []string
	fields := strings.Fields(content)
	for i := 0; i+1 < len(fields); i++ {
		if fields[i] == "class" || fields[i] == "struct" {
			name := strings.TrimRight(fields[i+1], "{;:")
			if isIdent(name) {
				out = append(out, name)
			}
		}
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// InPropList reports whether the identifier is a candidate property.
func (e *Extractor) InPropList(name string) bool {
	_, ok := e.propSites[name]
	return ok
}

// IdentifiedSite returns a property's declaration path under LLVMDIRs.
func (e *Extractor) IdentifiedSite(name string) string { return e.propSites[name] }

// PropNames returns the sorted candidate identifiers (for diagnostics).
func (e *Extractor) PropNames() []string {
	out := make([]string, 0, len(e.propSites))
	for n := range e.propSites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
