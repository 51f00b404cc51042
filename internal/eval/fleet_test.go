package eval

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"vega/internal/compiler"
	"vega/internal/corpus"
	"vega/internal/cpp"
)

// TestExtendedFleetScale checks the corpus-scale acceptance bar: 50+
// targets spanning the four new ISA archetypes.
func TestExtendedFleetScale(t *testing.T) {
	fleet, err := corpus.Fleet("extended")
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) < 50 {
		t.Fatalf("extended fleet has %d targets, want >= 50", len(fleet))
	}
	seen := map[string]bool{}
	arch := map[string]int{}
	for _, spec := range fleet {
		if seen[spec.Name] {
			t.Errorf("duplicate target name %s", spec.Name)
		}
		seen[spec.Name] = true
		if spec.HasVLIWBundles {
			arch["vliw"]++
		}
		if spec.HasPredication {
			arch["predicated"]++
		}
		if spec.HasTensorOps {
			arch["tensor"]++
		}
		if len(spec.Extensions) > 0 {
			arch["rvext"]++
		}
	}
	if len(arch) < 4 {
		t.Fatalf("extended fleet covers %d archetypes (%v), want 4", len(arch), arch)
	}
	for name, n := range arch {
		if n < 5 {
			t.Errorf("archetype %s has only %d members", name, n)
		}
	}
	// The standard fleet prefix must be untouched by the scale-out.
	std := corpus.Targets()
	for i, spec := range std {
		if fleet[i].Name != spec.Name {
			t.Fatalf("extended fleet reordered standard target %d: %s != %s", i, fleet[i].Name, spec.Name)
		}
	}
}

// TestFamilyTargetsPassHarness drives every synthesized family member
// through the full existing harness path: render + parse its reference
// backend, self-evaluate it perfectly against the regression suites, and
// materialize its compiler tables.
func TestFamilyTargetsPassHarness(t *testing.T) {
	for _, spec := range corpus.FamilyTargets() {
		ref, err := corpus.BuildBackend(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(ref.Funcs) == 0 {
			t.Fatalf("%s: empty backend", spec.Name)
		}
		be := EvaluateBackend(selfBackend(ref), ref, nil)
		tot := be.Totals()
		if tot.Accurate != tot.Funcs {
			t.Errorf("%s: self-eval %d/%d", spec.Name, tot.Accurate, tot.Funcs)
			for _, r := range be.Results {
				if !r.Accurate {
					t.Logf("  inaccurate: %s (parsed=%v)", r.Name, r.Parsed)
				}
			}
		}
		if tb := compiler.TablesFromSpec(spec); tb == nil || tb.NumRegs != spec.NumRegs {
			t.Errorf("%s: tables from spec failed", spec.Name)
		}
	}
}

var (
	fleetOnce sync.Once
	fleetRefs []*corpus.Backend
	fleetErr  error
)

// fleetBackends builds the reference backend of every target of the
// extended fleet, whose prefix is the standard fleet.
func fleetBackends(t *testing.T) []*corpus.Backend {
	t.Helper()
	fleetOnce.Do(func() {
		fleet, err := corpus.Fleet("extended")
		if err != nil {
			fleetErr = err
			return
		}
		for _, spec := range fleet {
			b, err := corpus.BuildBackend(spec)
			if err != nil {
				fleetErr = fmt.Errorf("%s: %w", spec.Name, err)
				return
			}
			fleetRefs = append(fleetRefs, b)
		}
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetRefs
}

// TestEveryImplementationHasCases holds the premise that lets pass@1 and
// repair judge every function by execution alone: every function a
// reference backend implements, on every target of both fleets, gets at
// least one regression case.
func TestEveryImplementationHasCases(t *testing.T) {
	n := 0
	for _, b := range fleetBackends(t) {
		u := NewUniverse(b)
		for _, f := range corpus.AllFuncs() {
			if b.Funcs[f.Name] == nil {
				continue
			}
			n++
			if len(Suite(f.Name, u)) == 0 {
				t.Errorf("%s: %s has an empty regression suite", b.Target.Name, f.Name)
			}
		}
	}
	if n == 0 {
		t.Fatal("no implementations checked")
	}
}

// TestStatementsLexOnce holds the premise of the single-lex statement
// form: for every statement of every reference backend on both fleets,
// the tokens of the statement's text equal the tokens of its canonical
// text.
func TestStatementsLexOnce(t *testing.T) {
	for _, b := range fleetBackends(t) {
		for name, fn := range b.Funcs {
			s := FunctionStatements(fn)
			for i, text := range s.Texts {
				if want := cpp.StatementTokens(text); !slices.Equal(s.Toks[i], want) {
					t.Errorf("%s/%s: statement %q lexes to %q, its canonical text to %q",
						b.Target.Name, name, text, s.Toks[i], want)
				}
			}
		}
	}
}
