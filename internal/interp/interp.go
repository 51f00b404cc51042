// Package interp executes functions written in the C++ subset of
// internal/cpp. It is the regression-test substrate: the paper's pass@1
// substitutes a generated function into the compiler and runs LLVM's
// regression suites; here both the generated function and the reference
// run side by side in this interpreter over input grids, and observable
// behaviour (return values, emitted bytes, collected effects, aborts) is
// compared.
//
// Values are Go values: int64, bool, string, and *Object for the stub
// objects (MCInst, operands, streams) the harness supplies.
package interp

import (
	"fmt"
	"strings"

	"vega/internal/cpp"
)

// Object is a stub C++ object: callable methods plus mutable fields.
type Object struct {
	Name    string
	Methods map[string]func(args []any) (any, error)
	Fields  map[string]any
}

// NewObject allocates a named stub object.
func NewObject(name string) *Object {
	return &Object{
		Name:    name,
		Methods: make(map[string]func(args []any) (any, error)),
		Fields:  make(map[string]any),
	}
}

// On registers a method.
func (o *Object) On(name string, fn func(args []any) (any, error)) *Object {
	o.Methods[name] = fn
	return o
}

// Const registers a zero-argument method returning a fixed value.
func (o *Object) Const(name string, v any) *Object {
	return o.On(name, func([]any) (any, error) { return v, nil })
}

// Env is the execution environment of one call.
type Env struct {
	// Globals resolves bare identifiers: enum members (FK_Data_4,
	// Success), feature-bit names, objects passed by the harness.
	Globals map[string]any
	// Qualified resolves "NS::member" names to values.
	Qualified map[string]any
	// Funcs resolves free function calls (report_fatal_error, helpers).
	Funcs map[string]func(args []any) (any, error)
	// MaxSteps bounds execution; 0 means the default (1e6).
	MaxSteps int
}

// NewEnv allocates an empty environment.
func NewEnv() *Env {
	return &Env{
		Globals:   make(map[string]any),
		Qualified: make(map[string]any),
		Funcs:     make(map[string]func(args []any) (any, error)),
	}
}

// Fatal is the error produced by report_fatal_error / llvm_unreachable —
// an observable outcome, distinct from interpreter failures.
type Fatal struct{ Msg string }

func (f Fatal) Error() string { return "fatal: " + f.Msg }

// RuntimeError reports genuine interpretation failures (unknown names,
// type confusion) — the generated code did something inexplicable.
type RuntimeError struct{ Msg string }

func (e RuntimeError) Error() string { return "interp: " + e.Msg }

// NeedArgs is a builtin's arity check: a call of name with fewer than n
// arguments is a RuntimeError, so generated code that calls a builtin
// short fails its case instead of panicking the caller.
func NeedArgs(name string, args []any, n int) error {
	if len(args) < n {
		return errf("%s: want %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func errf(format string, args ...any) error {
	return RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

type frame struct {
	env   *Env
	vars  map[string]any
	steps int
	max   int
}

type signal int

const (
	sigNone signal = iota
	sigReturn
	sigBreak
	sigContinue
)

// Call executes a parsed function with named arguments. It returns the
// function's return value (nil for void). A Fatal error reflects
// deliberate aborts in the interpreted code.
func Call(fn *cpp.Node, env *Env, args map[string]any) (any, error) {
	if fn == nil || fn.Kind != cpp.KindFunction {
		return nil, errf("not a function")
	}
	f := &frame{env: env, vars: make(map[string]any), max: env.MaxSteps}
	if f.max == 0 {
		f.max = 1_000_000
	}
	params := fn.Children[1]
	for _, p := range params.Children {
		if p.Value == "" {
			continue
		}
		if v, ok := args[p.Value]; ok {
			f.vars[p.Value] = v
		} else {
			f.vars[p.Value] = int64(0)
		}
	}
	body := fn.Children[2]
	var ret any
	sig, err := f.execBlock(body, &ret)
	if err != nil {
		return nil, err
	}
	if sig == sigReturn {
		return ret, nil
	}
	return nil, nil
}

func (f *frame) tick() error {
	f.steps++
	if f.steps > f.max {
		return errf("step limit exceeded (infinite loop?)")
	}
	return nil
}

func (f *frame) execBlock(blk *cpp.Node, ret *any) (signal, error) {
	for _, st := range blk.Children {
		sig, err := f.execStmt(st, ret)
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

func (f *frame) execStmt(st *cpp.Node, ret *any) (signal, error) {
	if err := f.tick(); err != nil {
		return sigNone, err
	}
	switch st.Kind {
	case cpp.KindBlock:
		return f.execBlock(st, ret)
	case cpp.KindEmpty:
		return sigNone, nil
	case cpp.KindDecl:
		for _, d := range st.Children[1:] {
			switch {
			case d.Kind == cpp.KindIdent:
				f.vars[d.Value] = int64(0)
			case d.Kind == cpp.KindAssign:
				v, err := f.eval(d.Children[1])
				if err != nil {
					return sigNone, err
				}
				f.vars[d.Children[0].Value] = v
			}
		}
		return sigNone, nil
	case cpp.KindExprStmt:
		_, err := f.eval(st.Children[0])
		return sigNone, err
	case cpp.KindReturn:
		if len(st.Children) == 1 {
			v, err := f.eval(st.Children[0])
			if err != nil {
				return sigNone, err
			}
			*ret = v
		} else {
			*ret = nil
		}
		return sigReturn, nil
	case cpp.KindBreak:
		return sigBreak, nil
	case cpp.KindContinue:
		return sigContinue, nil
	case cpp.KindIf:
		cond, err := f.evalBool(st.Children[0])
		if err != nil {
			return sigNone, err
		}
		if cond {
			return f.execStmt(st.Children[1], ret)
		}
		if len(st.Children) == 3 {
			return f.execStmt(st.Children[2], ret)
		}
		return sigNone, nil
	case cpp.KindSwitch:
		return f.execSwitch(st, ret)
	case cpp.KindWhile:
		for {
			if err := f.tick(); err != nil {
				return sigNone, err
			}
			cond, err := f.evalBool(st.Children[0])
			if err != nil {
				return sigNone, err
			}
			if !cond {
				return sigNone, nil
			}
			sig, err := f.execStmt(st.Children[1], ret)
			if err != nil {
				return sigNone, err
			}
			if sig == sigBreak {
				return sigNone, nil
			}
			if sig == sigReturn {
				return sigReturn, nil
			}
		}
	case cpp.KindDoWhile:
		for {
			if err := f.tick(); err != nil {
				return sigNone, err
			}
			sig, err := f.execStmt(st.Children[0], ret)
			if err != nil {
				return sigNone, err
			}
			if sig == sigBreak {
				return sigNone, nil
			}
			if sig == sigReturn {
				return sigReturn, nil
			}
			cond, err := f.evalBool(st.Children[1])
			if err != nil {
				return sigNone, err
			}
			if !cond {
				return sigNone, nil
			}
		}
	case cpp.KindFor:
		if st.Children[0].Kind != cpp.KindEmpty {
			if sig, err := f.execStmt(st.Children[0], ret); err != nil || sig != sigNone {
				return sig, err
			}
		}
		for {
			if err := f.tick(); err != nil {
				return sigNone, err
			}
			if st.Children[1].Kind != cpp.KindEmpty {
				cond, err := f.evalBool(st.Children[1])
				if err != nil {
					return sigNone, err
				}
				if !cond {
					return sigNone, nil
				}
			}
			sig, err := f.execStmt(st.Children[3], ret)
			if err != nil {
				return sigNone, err
			}
			if sig == sigBreak {
				return sigNone, nil
			}
			if sig == sigReturn {
				return sigReturn, nil
			}
			if st.Children[2].Kind != cpp.KindEmpty {
				if _, err := f.eval(st.Children[2]); err != nil {
					return sigNone, err
				}
			}
		}
	default:
		return sigNone, errf("cannot execute %v statement", st.Kind)
	}
}

// execSwitch evaluates the discriminant, finds the matching arm (or
// default), and executes arms from there with C fall-through semantics.
func (f *frame) execSwitch(st *cpp.Node, ret *any) (signal, error) {
	discr, err := f.eval(st.Children[0])
	if err != nil {
		return sigNone, err
	}
	arms := st.Children[1].Children
	match := -1
	deflt := -1
	for i, arm := range arms {
		if arm.Kind == cpp.KindDefault {
			deflt = i
			continue
		}
		label, err := f.eval(arm.Children[0])
		if err != nil {
			return sigNone, err
		}
		if equalValues(discr, label) {
			match = i
			break
		}
	}
	if match == -1 {
		match = deflt
	}
	if match == -1 {
		return sigNone, nil
	}
	for i := match; i < len(arms); i++ {
		arm := arms[i]
		stmts := arm.Children
		if arm.Kind == cpp.KindCase {
			stmts = arm.Children[1:]
		}
		for _, s := range stmts {
			sig, err := f.execStmt(s, ret)
			if err != nil {
				return sigNone, err
			}
			switch sig {
			case sigBreak:
				return sigNone, nil
			case sigReturn:
				return sigReturn, nil
			case sigContinue:
				return sigContinue, nil
			}
		}
	}
	return sigNone, nil
}

func equalValues(a, b any) bool {
	ai, aok := toInt(a)
	bi, bok := toInt(b)
	if aok && bok {
		return ai == bi
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return as == bs
	}
	return a == b
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func toBool(v any) (bool, bool) {
	switch x := v.(type) {
	case bool:
		return x, true
	case int64:
		return x != 0, true
	case int:
		return x != 0, true
	case string:
		return x != "", true
	case *Object:
		return x != nil, true
	case nil:
		return false, true
	}
	return false, false
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		inner := s[1 : len(s)-1]
		inner = strings.ReplaceAll(inner, `\"`, `"`)
		inner = strings.ReplaceAll(inner, `\\`, `\`)
		return inner
	}
	return s
}
