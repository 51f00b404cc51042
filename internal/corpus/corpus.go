package corpus

import (
	"fmt"
	"sort"
	"sync"

	"vega/internal/cpp"
	"vega/internal/tablegen"
)

// InterfaceFunc describes one LLVM-provided interface function: its name,
// owning module, and the generator producing a target's reference
// implementation (returning "" when the target does not implement it).
type InterfaceFunc struct {
	Name   string
	Module Module
	Gen    func(t *TargetSpec) string
}

// AllFuncs lists every interface function across the seven modules.
func AllFuncs() []InterfaceFunc {
	var out []InterfaceFunc
	out = append(out, selFuncs()...)
	out = append(out, regFuncs()...)
	out = append(out, optFuncs()...)
	out = append(out, schFuncs()...)
	out = append(out, emiFuncs()...)
	out = append(out, assFuncs()...)
	out = append(out, disFuncs()...)
	return out
}

// funcIndex lazily maps function name → InterfaceFunc. The function set
// is process-constant, so the index is built once and shared.
var funcIndex struct {
	once sync.Once
	m    map[string]InterfaceFunc
}

// FuncByName returns the interface function with the given name in O(1).
func FuncByName(name string) (InterfaceFunc, bool) {
	funcIndex.once.Do(func() {
		all := AllFuncs()
		m := make(map[string]InterfaceFunc, len(all))
		for _, f := range all {
			m[f.Name] = f
		}
		funcIndex.m = m
	})
	f, ok := funcIndex.m[name]
	return f, ok
}

// Backend is one target's complete set of reference implementations.
type Backend struct {
	Target *TargetSpec
	// Funcs maps interface-function name to parsed implementation.
	Funcs map[string]*cpp.Node
	// Sources keeps the rendered C++ text.
	Sources map[string]string
}

// FuncNames lists the backend's implemented functions, sorted.
func (b *Backend) FuncNames() []string {
	out := make([]string, 0, len(b.Funcs))
	for n := range b.Funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StatementCount totals the paper's statement metric over the backend.
func (b *Backend) StatementCount() int {
	n := 0
	for _, fn := range b.Funcs {
		n += len(cpp.NonClose(cpp.SplitFunction(fn)))
	}
	return n
}

// ParseFunction parses one rendered reference implementation into its
// normalized AST. A generator may emit the interface function plus local
// helpers (MIPS-style GetRelocTypeInner); pre-processing recursively
// inlines the helpers, as the paper's pipeline does.
func ParseFunction(src string) (*cpp.Node, error) {
	file, err := cpp.ParseFile(src)
	if err != nil {
		return nil, err
	}
	fn := file.Children[0]
	if len(file.Children) > 1 {
		in := cpp.NewInliner(file.Children[1:])
		fn = in.Inline(fn)
	}
	cpp.Normalize(fn)
	return fn, nil
}

// BuildBackend renders and parses one target's reference backend.
func BuildBackend(t *TargetSpec) (*Backend, error) {
	b := &Backend{
		Target:  t,
		Funcs:   make(map[string]*cpp.Node),
		Sources: make(map[string]string),
	}
	for _, f := range AllFuncs() {
		src := f.Gen(t)
		if src == "" {
			continue
		}
		fn, err := ParseFunction(src)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s %s: %w\n%s", t.Name, f.Name, err, src)
		}
		b.Funcs[f.Name] = fn
		b.Sources[f.Name] = src
	}
	return b, nil
}

// Corpus bundles the rendered source tree with every backend.
type Corpus struct {
	Tree     *tablegen.SourceTree
	Backends map[string]*Backend // by target name
	Targets  []*TargetSpec
}

// Build renders the standard fleet: the LLVM core, every target's
// description files, and every target's reference backend.
func Build() (*Corpus, error) { return BuildFleet(Targets()) }

// BuildFleet renders a resident corpus for an explicit fleet of targets.
func BuildFleet(targets []*TargetSpec) (*Corpus, error) {
	c := &Corpus{
		Tree:     BuildTree(targets),
		Backends: make(map[string]*Backend, len(targets)),
		Targets:  targets,
	}
	for _, t := range targets {
		b, err := BuildBackend(t)
		if err != nil {
			return nil, err
		}
		c.Backends[t.Name] = b
	}
	return c, nil
}

// TrainingBackends returns the non-eval backends, in fleet order.
func (c *Corpus) TrainingBackends() []*Backend {
	var out []*Backend
	for _, t := range c.Targets {
		if !t.Eval {
			out = append(out, c.Backends[t.Name])
		}
	}
	return out
}

// EvalBackends returns the held-out backends, in fleet order.
func (c *Corpus) EvalBackends() []*Backend {
	var out []*Backend
	for _, t := range c.Targets {
		if t.Eval {
			out = append(out, c.Backends[t.Name])
		}
	}
	return out
}
