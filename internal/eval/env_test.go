package eval

import (
	"reflect"
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// runCaseFresh is RunCase building a whole new environment for the
// case, the way it did before a Universe kept one: the reference the
// reused environment must reproduce.
func runCaseFresh(u *Universe, fn *cpp.Node, c Case) Outcome {
	u.ResetEffects()
	env := u.Env(0)
	for k, v := range c.Globals {
		env.Globals[k] = v
	}
	env.MaxSteps = 200_000
	ret, err := interp.Call(fn, env, c.Args)
	return u.outcome(ret, err)
}

// siblingCaller returns a function with fn's signature whose body only
// forwards its parameters to fn by name, so fn runs as a sibling-function
// stub called from the running case.
func siblingCaller(t *testing.T, name string, fn *cpp.Node) *cpp.Node {
	t.Helper()
	var params []string
	for _, p := range fn.Children[1].Children {
		params = append(params, p.Value)
	}
	body, err := cpp.ParseFunction("void f() { return " + name + "(" + strings.Join(params, ", ") + "); }")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := fn.Clone()
	out.Children[2] = body.Children[2]
	return out
}

// TestRunCaseReusedEnvMatchesFresh runs every regression case of every
// interface function on one reused Universe per target — the evaluation
// targets and one member of each extended-fleet family — and requires
// each Outcome to equal a fresh environment's. Per case it runs, back to
// back, the reference, a wrong implementation (the next target's) and a
// caller that reaches the reference through its sibling-function stub.
// Cases that override a global (MF) must reach the override through the
// stub too, and must leave the global as it was for the cases after.
func TestRunCaseReusedEnvMatchesFresh(t *testing.T) {
	backends := evalBackends(t, buildCorpus(t))
	for _, fam := range [][]*corpus.TargetSpec{
		corpus.VLIWTargets(), corpus.PredicatedTargets(), corpus.TensorTargets(), corpus.RVExtTargets(),
	} {
		b, err := corpus.BuildBackend(fam[0])
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	probe, err := cpp.ParseFunction("int probe() { return MF.getOptLevel(); }")
	if err != nil {
		t.Fatal(err)
	}
	overridesViaSibling := 0
	for bi, ref := range backends {
		other := backends[(bi+1)%len(backends)]
		u := NewUniverse(ref)
		for _, ifn := range corpus.AllFuncs() {
			fn := ref.Funcs[ifn.Name]
			cases := Suite(ifn.Name, u)
			if fn == nil || len(cases) == 0 {
				continue
			}
			impls := []*cpp.Node{fn, siblingCaller(t, ifn.Name, fn)}
			if wrong := other.Funcs[ifn.Name]; wrong != nil {
				impls = append(impls, wrong)
			}
			for ci, c := range cases {
				if len(c.Globals) > 0 {
					overridesViaSibling++
				}
				for ii, impl := range impls {
					got := u.RunCase(impl, c)
					if want := runCaseFresh(u, impl, c); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s case %d impl %d: reused env %+v, fresh env %+v",
							ref.Target.Name, ifn.Name, ci, ii, got, want)
					}
				}
			}
		}
		if got, want := u.RunCase(probe, Case{}), runCaseFresh(u, probe, Case{}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after the overriding cases, the base MF reads %+v, fresh %+v", ref.Target.Name, got, want)
		}
	}
	if overridesViaSibling == 0 {
		t.Fatal("no case overrides a global: the sibling stubs' view of it went untested")
	}
}
