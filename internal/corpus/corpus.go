package corpus

import (
	"fmt"
	"sync"

	"vega/internal/cpp"
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
	b := &Backend{Target: t, Funcs: make(map[string]*cpp.Node)}
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
	}
	return b, nil
}

// Build returns the streaming provider over the standard fleet: the
// training targets plus the three held-out evaluation targets.
func Build() (*Stream, error) { return NewStream(Targets()), nil }
