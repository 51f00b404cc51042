package compiler

import (
	"maps"
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// newTestEnv builds the minimal interpreter environment TablesFromBackend
// needs; the full harness lives in internal/eval (which depends on this
// package's consumers, so the test re-creates the slice it needs).
func newTestEnv(t *testing.T, b *corpus.Backend) *interp.Env {
	t.Helper()
	env := interp.NewEnv()
	spec := b.Target
	for name, v := range map[string]int64{
		"SETEQ": 0, "SETNE": 1, "SETLT": 2, "SETGT": 3,
		"NoRegister": 4095, "Fail": 0, "Success": 3,
	} {
		env.Globals[name] = v
	}
	features := map[string]bool{
		"HasHardwareLoop": spec.HasHardwareLoop,
		"HasSIMD":         spec.HasSIMD,
	}
	for n := range features {
		env.Globals[n] = n
	}
	env.Globals["STI"] = interp.NewObject("STI").On("hasFeature", func(args []any) (any, error) {
		name, _ := args[0].(string)
		return features[name], nil
	})
	for i := 0; i < spec.NumRegs; i++ {
		env.Qualified[spec.Name+"::"+spec.RegEnum(i)] = int64(1000 + i)
	}
	for _, inst := range spec.InstSet {
		env.Qualified[spec.Name+"::"+inst.Enum] = int64(inst.Opcode)
	}
	for name, fn := range b.Funcs {
		name, fn := name, fn
		env.Funcs[name] = func(args []any) (any, error) {
			bound := map[string]any{}
			params := fn.Children[1]
			for i, p := range params.Children {
				if i < len(args) && p.Value != "" {
					bound[p.Value] = args[i]
				}
			}
			return interp.Call(fn, env, bound)
		}
	}
	return env
}

// A callee-saved-register query that calls push_back with no argument
// is an extraction error, not a panic.
func TestTablesFromBackendShortPushBack(t *testing.T) {
	spec := corpus.FindTarget("RISCV")
	b, err := corpus.BuildBackend(spec)
	if err != nil {
		t.Fatal(err)
	}
	fns := maps.Clone(b.Funcs)
	fns["getCalleeSavedRegs"], err = cpp.ParseFunction("void f(RegList &Regs) { Regs.push_back(); }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TablesFromBackend(spec, fns, newTestEnv(t, b)); err == nil || !strings.Contains(err.Error(), "push_back") {
		t.Errorf("TablesFromBackend error = %v, want one naming push_back", err)
	}
}
