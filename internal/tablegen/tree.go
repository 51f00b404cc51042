package tablegen

import (
	"sort"
	"strings"
	"sync"

	"vega/internal/cpp"
)

// SourceTree is a virtual directory of source files — the LLVM-provided
// code under LLVMDIRs plus the per-target description files under TGTDIRs.
// It answers the search queries Algorithm 1 performs: token occurrence,
// assignment scanning, and enum membership.
type SourceTree struct {
	files map[string]string // path -> content

	// Lazily built indexes, guarded by mu: queries may arrive from
	// Stage 1's templatization workers and Stage 3's concurrent
	// generation workers, and the first one to need an index builds it.
	// Once assigned the maps are read-only (Add replaces them wholesale),
	// so queries after the build need no lock — the build's mutex release
	// publishes the maps.
	mu          sync.Mutex
	tokens      map[string][]string         // token -> sorted paths containing it
	assigns     map[string][]Assignment     // path -> assignments
	listAssigns map[string][]ListAssignment // path -> list assignments
	enums       map[string][]Enum           // path -> enums

	// Per-directory-set memos, guarded by mu on every access: the
	// feature-selection inner loops ask for the same few TGTDIRs/LLVMDIRs
	// slices thousands of times per pipeline build, and re-concatenating
	// (or worse, re-lexing) per call dominated Stage 1. Returned slices
	// are shared — callers must not mutate them.
	pathsMemo  map[string][]string
	assignMemo map[string][]Assignment
	listMemo   map[string][]ListAssignment

	// Values derived from the tree (parsed .td files among them), guarded
	// by memoMu rather than mu so a derivation in progress never blocks
	// the index queries above. See Memo.
	memoMu sync.Mutex
	memos  map[string]any // Memo key -> derived value
}

// Assignment is a "key = value" pair found in a file, whether a TableGen
// field, a top-level .td assignment, or a C++ initializer.
type Assignment struct {
	Path  string
	LHS   string
	RHS   string // unquoted for string literals
	IsStr bool
}

// NewSourceTree builds an empty tree.
func NewSourceTree() *SourceTree {
	return &SourceTree{files: make(map[string]string)}
}

// Add inserts or replaces a file. Indexes are invalidated. Not safe to
// call concurrently with queries — trees are built up front and read
// from then on.
func (t *SourceTree) Add(path, content string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.files[path] = content
	t.tokens, t.assigns, t.listAssigns, t.enums = nil, nil, nil, nil
	t.pathsMemo, t.assignMemo, t.listMemo = nil, nil, nil
	t.memoMu.Lock()
	t.memos = nil
	t.memoMu.Unlock()
}

// TD returns the parsed TableGen file at path, parsing it on first use.
// Successes and failures are both remembered until the next Add. The
// returned file is shared — callers must not mutate it.
func (t *SourceTree) TD(path string) (*TDFile, error) {
	r := t.Memo("tablegen.TD\x00"+path, func() any {
		content, _ := t.Content(path)
		td, err := ParseTD(content)
		return tdParse{td, err}
	}).(tdParse)
	return r.td, r.err
}

// tdParse is one memoized ParseTD outcome. A failed parse keeps its
// error, so the cache answers a failure exactly as the first attempt did
// and never conflates it with a file that parses to an empty TDFile.
type tdParse struct {
	td  *TDFile
	err error
}

// Memo returns build's value under key, computing it once per tree
// content: Add drops every memo. It keeps values derived from the tree —
// parsed .td files, and other packages' derivations such as Stage 1's
// cache-key hashes — on the tree itself, so they live exactly as long as
// the content they describe. build must be a pure function of the tree,
// and runs outside the lock: two goroutines may build the same key, and
// either value may be kept. The value is shared — callers must not
// mutate it.
func (t *SourceTree) Memo(key string, build func() any) any {
	t.memoMu.Lock()
	v, ok := t.memos[key]
	t.memoMu.Unlock()
	if ok {
		return v
	}
	v = build()
	t.memoMu.Lock()
	if t.memos == nil {
		t.memos = make(map[string]any)
	}
	t.memos[key] = v
	t.memoMu.Unlock()
	return v
}

// Content returns a file's content.
func (t *SourceTree) Content(path string) (string, bool) {
	c, ok := t.files[path]
	return c, ok
}

// Paths returns all file paths, sorted.
func (t *SourceTree) Paths() []string {
	out := make([]string, 0, len(t.files))
	for p := range t.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PathsUnder returns all file paths under any of the given directory
// prefixes, sorted. The slice is memoized per directory set and shared
// across calls — callers must not mutate it.
func (t *SourceTree) PathsUnder(dirs []string) []string {
	key := strings.Join(dirs, "\x00")
	t.mu.Lock()
	if out, ok := t.pathsMemo[key]; ok {
		t.mu.Unlock()
		return out
	}
	var out []string
	for p := range t.files {
		for _, d := range dirs {
			if underDir(p, d) {
				out = append(out, p)
				break
			}
		}
	}
	sort.Strings(out)
	if t.pathsMemo == nil {
		t.pathsMemo = make(map[string][]string)
	}
	t.pathsMemo[key] = out
	t.mu.Unlock()
	return out
}

func (t *SourceTree) buildTokenIndex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tokens != nil {
		return
	}
	tokens := make(map[string][]string)
	seen := make(map[string]bool)
	add := func(p, tok string) {
		if !seen[tok] {
			seen[tok] = true
			tokens[tok] = append(tokens[tok], p)
		}
	}
	for _, p := range t.Paths() { // sorted, so every posting list is too
		clear(seen)
		c := t.files[p]
		toks, err := cpp.Lex(c)
		if err != nil {
			// Fall back to whitespace splitting on unlexable content so a
			// single odd file cannot hide the rest of the tree.
			for _, w := range strings.Fields(c) {
				add(p, w)
			}
			continue
		}
		for _, tok := range toks {
			add(p, tok.Text)
			if tok.Kind == cpp.TokString {
				// Index string contents too: feature selection matches
				// tokens against values like Name = "RISCV".
				add(p, unquote(tok.Text))
			}
		}
	}
	t.tokens = tokens
}

// FindToken returns the sorted paths under dirs whose token stream
// contains tok exactly.
func (t *SourceTree) FindToken(tok string, dirs []string) []string {
	t.buildTokenIndex()
	var out []string
	for _, p := range t.tokens[tok] {
		for _, d := range dirs {
			if underDir(p, d) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// underDir reports whether path lies under directory d ("a/b" or "a/b/").
func underDir(path, d string) bool {
	d = strings.TrimSuffix(d, "/")
	return len(path) > len(d) && path[len(d)] == '/' && strings.HasPrefix(path, d)
}

func (t *SourceTree) buildAssignIndex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.assigns != nil {
		return
	}
	assigns := make(map[string][]Assignment, len(t.files))
	for p, c := range t.files {
		assigns[p] = scanAssignments(p, c)
	}
	t.assigns = assigns
}

// scanAssignments finds "ident = value" pairs token-wise. String RHSes are
// unquoted. This catches TableGen fields, top-level assigns and C++
// initializers uniformly, which is all Algorithm 1's partial matching
// needs.
func scanAssignments(path, content string) []Assignment {
	toks, err := cpp.Lex(content)
	if err != nil {
		return nil
	}
	var out []Assignment
	for i := 1; i+1 < len(toks); i++ {
		if !toks[i].IsPunct("=") {
			continue
		}
		lhs, rhs := toks[i-1], toks[i+1]
		if lhs.Kind != cpp.TokIdent {
			continue
		}
		a := Assignment{Path: path, LHS: lhs.Text}
		switch rhs.Kind {
		case cpp.TokString:
			a.RHS = unquote(rhs.Text)
			a.IsStr = true
		case cpp.TokIdent, cpp.TokNumber, cpp.TokKeyword:
			a.RHS = rhs.Text
		default:
			continue
		}
		out = append(out, a)
	}
	return out
}

// ListAssignment is an "LHS = [a, b, c]" binding (TableGen list values).
type ListAssignment struct {
	Path  string
	LHS   string
	Items []string
}

// scanListAssignments finds "ident = [ items ]" bindings token-wise.
func scanListAssignments(path, content string) []ListAssignment {
	toks, err := cpp.Lex(content)
	if err != nil {
		return nil
	}
	var out []ListAssignment
	for i := 1; i+1 < len(toks); i++ {
		if !toks[i].IsPunct("=") || !toks[i+1].IsPunct("[") || toks[i-1].Kind != cpp.TokIdent {
			continue
		}
		la := ListAssignment{Path: path, LHS: toks[i-1].Text}
		for j := i + 2; j < len(toks); j++ {
			t := toks[j]
			if t.IsPunct("]") {
				break
			}
			if t.Kind == cpp.TokIdent || t.Kind == cpp.TokNumber {
				la.Items = append(la.Items, t.Text)
			} else if t.Kind == cpp.TokString {
				la.Items = append(la.Items, unquote(t.Text))
			}
		}
		out = append(out, la)
	}
	return out
}

func (t *SourceTree) buildListAssignIndex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listAssigns != nil {
		return
	}
	listAssigns := make(map[string][]ListAssignment, len(t.files))
	for p, c := range t.files {
		if !strings.HasSuffix(p, ".td") {
			continue
		}
		listAssigns[p] = scanListAssignments(p, c)
	}
	t.listAssigns = listAssigns
}

// ListAssignmentsUnder returns every list assignment in files under dirs.
// The slice is memoized per directory set and shared — do not mutate.
func (t *SourceTree) ListAssignmentsUnder(dirs []string) []ListAssignment {
	t.buildListAssignIndex()
	key := strings.Join(dirs, "\x00")
	t.mu.Lock()
	if out, ok := t.listMemo[key]; ok {
		t.mu.Unlock()
		return out
	}
	t.mu.Unlock()
	var out []ListAssignment
	for _, p := range t.PathsUnder(dirs) {
		out = append(out, t.listAssigns[p]...)
	}
	t.mu.Lock()
	if t.listMemo == nil {
		t.listMemo = make(map[string][]ListAssignment)
	}
	t.listMemo[key] = out
	t.mu.Unlock()
	return out
}

// AssignmentsUnder returns every assignment in files under dirs. The
// slice is memoized per directory set and shared — do not mutate.
func (t *SourceTree) AssignmentsUnder(dirs []string) []Assignment {
	t.buildAssignIndex()
	key := strings.Join(dirs, "\x00")
	t.mu.Lock()
	if out, ok := t.assignMemo[key]; ok {
		t.mu.Unlock()
		return out
	}
	t.mu.Unlock()
	var out []Assignment
	for _, p := range t.PathsUnder(dirs) {
		out = append(out, t.assigns[p]...)
	}
	t.mu.Lock()
	if t.assignMemo == nil {
		t.assignMemo = make(map[string][]Assignment)
	}
	t.assignMemo[key] = out
	t.mu.Unlock()
	return out
}

func (t *SourceTree) buildEnumIndex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.enums != nil {
		return
	}
	enums := make(map[string][]Enum, len(t.files))
	for p, c := range t.files {
		if !strings.HasSuffix(p, ".h") && !strings.HasSuffix(p, ".def") {
			continue
		}
		es, err := ParseEnums(c)
		if err != nil {
			continue
		}
		if strings.HasSuffix(p, ".def") {
			// X-macro .def files act as enums named after the macro:
			// ELF_RELOC(R_X_32, 1) contributes member R_X_32 to ELF_RELOC.
			if macros, err := ParseDefFile(c); err == nil {
				index := map[string]int{}
				var synth []Enum
				for _, m := range macros {
					if len(m.Args) == 0 {
						continue
					}
					k, ok := index[m.Name]
					if !ok {
						k = len(synth)
						index[m.Name] = k
						synth = append(synth, Enum{Name: m.Name})
					}
					mem := EnumMember{Name: m.Args[0]}
					if len(m.Args) > 1 {
						mem.Value = m.Args[1]
					}
					synth[k].Members = append(synth[k].Members, mem)
				}
				es = append(es, synth...)
			}
		}
		enums[p] = es
	}
	t.enums = enums
}

// EnumsUnder returns all enums declared in headers under dirs, with the
// paths that declare them.
func (t *SourceTree) EnumsUnder(dirs []string) map[string][]Enum {
	t.buildEnumIndex()
	out := make(map[string][]Enum)
	for _, p := range t.PathsUnder(dirs) {
		if es := t.enums[p]; len(es) > 0 {
			out[p] = es
		}
	}
	return out
}

// EnumContaining finds the enum (and declaring path) that has member under
// dirs. Returns ok=false if none does.
func (t *SourceTree) EnumContaining(member string, dirs []string) (enumName, path string, ok bool) {
	t.buildEnumIndex()
	for _, p := range t.PathsUnder(dirs) {
		for _, e := range t.enums[p] {
			if e.Has(member) {
				return e.Name, p, true
			}
		}
	}
	return "", "", false
}

// EnumMembers returns the members of the named enum found under dirs
// (first declaration wins).
func (t *SourceTree) EnumMembers(enumName string, dirs []string) []string {
	t.buildEnumIndex()
	for _, p := range t.PathsUnder(dirs) {
		for _, e := range t.enums[p] {
			if e.Name == enumName {
				return e.MemberNames()
			}
		}
	}
	return nil
}
