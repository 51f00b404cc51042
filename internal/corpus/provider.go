package corpus

import (
	"fmt"
	"iter"
	"sync"

	"vega/internal/cpp"
	"vega/internal/tablegen"
)

// Provider is the corpus abstraction Stage 1 and evaluation read: it
// yields one function group at a time, so Stage 1 memory stays bounded by
// a single group regardless of fleet size.
//
// Stream is the one implementation; it renders groups on demand straight
// from the TargetSpecs. Override (and benchmark instrumentation) decorate
// a Provider by embedding it.
type Provider interface {
	// TargetSpecs iterates the fleet in its canonical order.
	TargetSpecs() iter.Seq[*TargetSpec]
	// SourceTree returns the rendered .td/.h/.def tree for the fleet.
	SourceTree() *tablegen.SourceTree
	// GroupSource collects one interface function's implementations
	// across the training targets, in fleet order. Targets that do not
	// implement the function are absent; an empty group has no targets.
	GroupSource(fn InterfaceFunc) *GroupSource
	// ReferenceBackend returns the full parsed reference backend for one
	// target (used by eval and verify-and-repair), or an error if the
	// fleet has no such target.
	ReferenceBackend(name string) (*Backend, error)
}

// GroupSource is the raw material of one Stage 1 function group: per
// training target, the rendered C++ text of one interface function's
// implementation. Sources[i] belongs to Targets[i] and is what per-group
// cache keys hash.
type GroupSource struct {
	Func    InterfaceFunc
	Targets []string
	Sources []string
}

// Impls parses the sources into implementations aligned with Targets.
func (g *GroupSource) Impls() ([]*cpp.Node, error) {
	out := make([]*cpp.Node, len(g.Targets))
	for i, src := range g.Sources {
		fn, err := ParseFunction(src)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s %s: %w\n%s", g.Targets[i], g.Func.Name, err, src)
		}
		out[i] = fn
	}
	return out, nil
}

// Stream is the on-demand Provider: it renders each function group
// straight from the TargetSpecs when asked, holding only the source tree
// (cheap text) resident. Reference backends are materialized lazily and
// memoized, so eval-only paths pay for just the targets they touch.
type Stream struct {
	specs []*TargetSpec
	tree  *tablegen.SourceTree

	mu   sync.Mutex
	refs map[string]*Backend
}

// NewStream builds a streaming provider over an explicit fleet.
func NewStream(specs []*TargetSpec) *Stream {
	return &Stream{
		specs: specs,
		tree:  BuildTree(specs),
		refs:  make(map[string]*Backend),
	}
}

// TargetSpecs implements Provider.
func (s *Stream) TargetSpecs() iter.Seq[*TargetSpec] {
	return func(yield func(*TargetSpec) bool) {
		for _, t := range s.specs {
			if !yield(t) {
				return
			}
		}
	}
}

// SourceTree implements Provider.
func (s *Stream) SourceTree() *tablegen.SourceTree { return s.tree }

// GroupSource implements Provider by rendering the group's sources.
func (s *Stream) GroupSource(fn InterfaceFunc) *GroupSource {
	gs := &GroupSource{Func: fn}
	for _, t := range s.specs {
		if t.Eval {
			continue
		}
		src := fn.Gen(t)
		if src == "" {
			continue
		}
		gs.Targets = append(gs.Targets, t.Name)
		gs.Sources = append(gs.Sources, src)
	}
	return gs
}

// ReferenceBackend implements Provider, building each backend on first
// use and memoizing it.
func (s *Stream) ReferenceBackend(name string) (*Backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.refs[name]; ok {
		return b, nil
	}
	t := FindIn(s.specs, name)
	if t == nil {
		return nil, fmt.Errorf("corpus: no backend %q", name)
	}
	b, err := BuildBackend(t)
	if err != nil {
		return nil, err
	}
	s.refs[name] = b
	return b, nil
}

// Override decorates a Provider, replacing the rendered source of one
// (function, target) pair. It models "the user edited one target's
// implementation" for incremental-invalidation tests and benchmarks:
// exactly one group's cache key changes, and that group re-parses from
// the overridden text.
type Override struct {
	Provider
	FuncName string
	Target   string
	Source   string
}

// GroupSource substitutes the override in the affected group.
func (o *Override) GroupSource(fn InterfaceFunc) *GroupSource {
	gs := o.Provider.GroupSource(fn)
	if fn.Name != o.FuncName {
		return gs
	}
	out := &GroupSource{
		Func:    gs.Func,
		Targets: gs.Targets,
		Sources: append([]string(nil), gs.Sources...),
	}
	for i, t := range out.Targets {
		if t == o.Target {
			out.Sources[i] = o.Source
		}
	}
	return out
}

// Specs collects a provider's fleet as a slice.
func Specs(p Provider) []*TargetSpec {
	var out []*TargetSpec
	for t := range p.TargetSpecs() {
		out = append(out, t)
	}
	return out
}

// TrainingSpecs collects the provider's training targets, in fleet order.
func TrainingSpecs(p Provider) []*TargetSpec {
	var out []*TargetSpec
	for t := range p.TargetSpecs() {
		if !t.Eval {
			out = append(out, t)
		}
	}
	return out
}

// FindSpec returns the provider's target with the given name, or nil.
func FindSpec(p Provider, name string) *TargetSpec {
	for t := range p.TargetSpecs() {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// FindIn returns the spec with the given name from a slice, or nil.
func FindIn(specs []*TargetSpec, name string) *TargetSpec {
	for _, t := range specs {
		if t.Name == name {
			return t
		}
	}
	return nil
}
