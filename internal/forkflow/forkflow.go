// Package forkflow implements the paper's baseline: the traditional
// fork-flow approach of copying the most similar existing backend and
// mechanically renaming it for the new target. The paper forked MIPS for
// all three evaluation targets; so does this implementation. Accuracy is
// then measured by the same pass@1 harness as VEGA's output — which is
// how the baseline lands below 8%: renamed identifiers rarely match the
// new target's actual fixups, relocations, registers or opcodes.
package forkflow

import (
	"fmt"
	"strings"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/generate"
)

// DefaultDonor is the backend the paper forks from.
const DefaultDonor = "Mips"

// Fork produces a backend for target by copying donor's implementations
// and renaming the donor's namespace tokens to the target's. Both must be
// in the provider's fleet.
func Fork(pr corpus.Provider, donor, target string) (*generate.Backend, error) {
	d, err := pr.ReferenceBackend(donor)
	if err != nil {
		return nil, err
	}
	tSpec := corpus.FindSpec(pr, target)
	if tSpec == nil {
		return nil, fmt.Errorf("forkflow: no target %q in the fleet", target)
	}
	out := &generate.Backend{Target: target, Seconds: map[string]float64{}}
	for _, ifn := range corpus.AllFuncs() {
		fn, ok := d.Funcs[ifn.Name]
		if !ok {
			continue
		}
		forked := RenameFunction(fn, d.Target, tSpec)
		gf := &generate.Function{
			Name:   ifn.Name,
			Module: string(ifn.Module),
			Target: target,
		}
		for i, st := range cpp.SplitFunction(forked) {
			gf.Statements = append(gf.Statements, generate.Statement{
				Row:   i,
				Text:  st.Text,
				Score: 1.0, // the fork flow asserts everything it copies
			})
		}
		out.Functions = append(out.Functions, gf)
	}
	return out, nil
}

// RenameFunction rewrites a donor function for a new target: namespace
// components of identifiers are substituted in all casings, which is the
// mechanical part of a human fork.
func RenameFunction(fn *cpp.Node, donor, target *corpus.TargetSpec) *cpp.Node {
	out := fn.Clone()
	ren := renamer(donor, target)
	rewrite(out, ren)
	return out
}

// renamer maps donor namespace spellings to target spellings.
func renamer(donor, target *corpus.TargetSpec) func(string) string {
	pairs := [][2]string{
		{donor.Name, target.Name},
		{strings.ToUpper(donor.Name), strings.ToUpper(target.Name)},
		{strings.ToLower(donor.Name), strings.ToLower(target.Name)},
		{donor.TdName, target.TdName},
	}
	return func(s string) string {
		for _, p := range pairs {
			if p[0] == "" || p[0] == p[1] {
				continue
			}
			s = strings.ReplaceAll(s, p[0], p[1])
		}
		return s
	}
}

func rewrite(n *cpp.Node, ren func(string) string) {
	switch n.Kind {
	case cpp.KindIdent, cpp.KindQualified, cpp.KindType, cpp.KindFunction, cpp.KindString:
		n.Value = ren(n.Value)
	}
	for _, c := range n.Children {
		rewrite(c, ren)
	}
}
