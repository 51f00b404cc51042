package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vega/internal/compiler"
	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// Differential fuzz: the same randomly generated scalar program executed
// through the C++ interpreter (the evaluation oracle's engine) and through
// compile→simulate at O0 and O3 on two targets must return identical
// values. Programs are constructed to stay inside the shared semantic core
// the two stacks guarantee: int64 wrap-around arithmetic, shifts masked
// &63 on both sides, division/modulo only by nonzero constants,
// comparisons only in branch conditions, and loops bounded by construction
// (no step-limit divergence).

// fuzzGen builds one random program simultaneously as a compiler mini-AST
// function and (via render) as C++ source.
type fuzzGen struct {
	rng      *rand.Rand
	params   []string
	locals   []string // assignable scalars, declared "int v = 0;"
	counters int      // while-loop counters minted so far
	loops    int      // for-loop vars minted so far
	inScope  []string // loop vars readable at the current point
	depth    int      // statement nesting depth
}

func (g *fuzzGen) readable() []string {
	out := append([]string{}, g.params...)
	out = append(out, g.locals...)
	return append(out, g.inScope...)
}

func (g *fuzzGen) expr(depth int) compiler.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return compiler.Const{Value: int64(g.rng.Intn(10))}
		}
		vars := g.readable()
		return compiler.Var{Name: vars[g.rng.Intn(len(vars))]}
	}
	op := [...]string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}[g.rng.Intn(10)]
	l := g.expr(depth - 1)
	var r compiler.Expr
	switch op {
	case "<<", ">>":
		r = compiler.Const{Value: int64(g.rng.Intn(8))}
	case "/", "%":
		r = compiler.Const{Value: int64(1 + g.rng.Intn(9))}
	default:
		r = g.expr(depth - 1)
	}
	return compiler.Bin{Op: op, L: l, R: r}
}

func (g *fuzzGen) cond() compiler.Expr {
	op := [...]string{"==", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
	return compiler.Bin{Op: op, L: g.expr(1), R: g.expr(1)}
}

func (g *fuzzGen) assign() compiler.Stmt {
	return compiler.Assign{
		Name: g.locals[g.rng.Intn(len(g.locals))],
		E:    g.expr(2),
	}
}

// stmts generates n statements at the current nesting depth.
func (g *fuzzGen) stmts(n int) []compiler.Stmt {
	var out []compiler.Stmt
	for i := 0; i < n; i++ {
		switch k := g.rng.Intn(6); {
		case k <= 2 || g.depth >= 2:
			out = append(out, g.assign())
		case k == 3:
			g.depth++
			st := compiler.If{Cond: g.cond(), Then: g.stmts(1 + g.rng.Intn(2))}
			if g.rng.Intn(2) == 0 {
				st.Else = g.stmts(1)
			}
			g.depth--
			out = append(out, st)
		case k == 4:
			// Counted loop over a fresh variable, readable in its body.
			v := fmt.Sprintf("i%d", g.loops)
			g.loops++
			from := int64(g.rng.Intn(3))
			to := from + int64(g.rng.Intn(6))
			g.depth++
			g.inScope = append(g.inScope, v)
			body := g.stmts(1 + g.rng.Intn(2))
			g.inScope = g.inScope[:len(g.inScope)-1]
			g.depth--
			out = append(out, compiler.For{
				Var: v, From: compiler.Const{Value: from}, To: compiler.Const{Value: to}, Body: body,
			})
		default:
			// Bounded while: a dedicated counter no other statement can
			// touch guarantees termination in both executions.
			w := fmt.Sprintf("w%d", g.counters)
			g.counters++
			k := int64(1 + g.rng.Intn(5))
			g.depth++
			body := g.stmts(1 + g.rng.Intn(2))
			g.depth--
			body = append(body, compiler.Assign{
				Name: w, E: compiler.Bin{Op: "-", L: compiler.Var{Name: w}, R: compiler.Const{Value: 1}},
			})
			out = append(out,
				compiler.Assign{Name: w, E: compiler.Const{Value: k}},
				compiler.While{
					Cond: compiler.Bin{Op: ">", L: compiler.Var{Name: w}, R: compiler.Const{Value: 0}},
					Body: body,
				})
		}
	}
	return out
}

// fuzzProgram builds one scalar program "f" plus the local names that need
// declarations (locals first, then while counters — all zero-initialized
// explicitly in both representations).
func fuzzProgram(rng *rand.Rand) (*compiler.Program, []string) {
	g := &fuzzGen{rng: rng, params: []string{"p0", "p1", "p2"}, locals: []string{"a", "b", "c"}}
	var body []compiler.Stmt
	for _, v := range g.locals {
		body = append(body, compiler.Assign{Name: v, E: compiler.Const{Value: 0}})
	}
	body = append(body, g.stmts(3+rng.Intn(4))...)
	body = append(body, compiler.Return{E: g.expr(2)})
	fn := &compiler.Function{Name: "f", Params: g.params, Body: body}
	decls := append([]string{}, g.locals...)
	for i := 0; i < g.counters; i++ {
		decls = append(decls, fmt.Sprintf("w%d", i))
	}
	return &compiler.Program{Funcs: []*compiler.Function{fn}}, decls
}

// --- mini-AST → C++ renderer (the interpreter's input) ---

func renderExpr(e compiler.Expr) string {
	switch x := e.(type) {
	case compiler.Const:
		return fmt.Sprintf("%d", x.Value)
	case compiler.Var:
		return x.Name
	case compiler.Bin:
		return "(" + renderExpr(x.L) + " " + x.Op + " " + renderExpr(x.R) + ")"
	}
	panic(fmt.Sprintf("renderExpr: unsupported %T", e))
}

func renderStmts(b *strings.Builder, sts []compiler.Stmt, indent string) {
	for _, st := range sts {
		switch x := st.(type) {
		case compiler.Assign:
			fmt.Fprintf(b, "%s%s = %s;\n", indent, x.Name, renderExpr(x.E))
		case compiler.If:
			fmt.Fprintf(b, "%sif (%s) {\n", indent, renderExpr(x.Cond))
			renderStmts(b, x.Then, indent+"  ")
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", indent)
				renderStmts(b, x.Else, indent+"  ")
			}
			fmt.Fprintf(b, "%s}\n", indent)
		case compiler.For:
			fmt.Fprintf(b, "%sfor (int %s = %s; %s < %s; %s = %s + 1) {\n",
				indent, x.Var, renderExpr(x.From), x.Var, renderExpr(x.To), x.Var, x.Var)
			renderStmts(b, x.Body, indent+"  ")
			fmt.Fprintf(b, "%s}\n", indent)
		case compiler.While:
			fmt.Fprintf(b, "%swhile (%s) {\n", indent, renderExpr(x.Cond))
			renderStmts(b, x.Body, indent+"  ")
			fmt.Fprintf(b, "%s}\n", indent)
		case compiler.Return:
			fmt.Fprintf(b, "%sreturn %s;\n", indent, renderExpr(x.E))
		default:
			panic(fmt.Sprintf("renderStmts: unsupported %T", st))
		}
	}
}

func renderCpp(p *compiler.Program, decls []string) string {
	fn := p.Funcs[0]
	var b strings.Builder
	ps := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		ps[i] = "int " + p
	}
	fmt.Fprintf(&b, "int %s(%s) {\n", fn.Name, strings.Join(ps, ", "))
	for _, d := range decls {
		fmt.Fprintf(&b, "  int %s = 0;\n", d)
	}
	// The explicit zero-assigns that mirror these declarations are the
	// first statements of the body; rendering them again is harmless
	// (idempotent) and keeps the two representations trivially aligned.
	renderStmts(&b, fn.Body, "  ")
	b.WriteString("}\n")
	return b.String()
}

func TestDifferentialInterpVsSim(t *testing.T) {
	const seeds = 50
	targets := map[string]*compiler.Tables{}
	for _, name := range []string{"RISCV", "RI5CY"} {
		spec := corpus.FindTarget(name)
		if spec == nil {
			t.Fatalf("unknown target %s", name)
		}
		targets[name] = compiler.TablesFromSpec(spec)
	}

	// Parallel on purpose: under -race this doubles as a check that the
	// compiler tables and the two executors are safe to share.
	var wg sync.WaitGroup
	for seed := int64(0); seed < seeds; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			diffOneSeed(t, targets, seed)
		}(seed)
	}
	wg.Wait()
}

func diffOneSeed(t *testing.T, targets map[string]*compiler.Tables, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	prog, decls := fuzzProgram(rng)
	src := renderCpp(prog, decls)

	fn, err := cpp.ParseFunction(src)
	if err != nil {
		t.Errorf("seed %d: generated source does not parse: %v\n%s", seed, err, src)
		return
	}

	argSets := [][]int64{
		{0, 0, 0},
		{1, 2, 3},
		{-7, 13, -1},
		{int64(rng.Intn(2000) - 1000), int64(rng.Intn(2000) - 1000), int64(rng.Intn(9))},
	}

	// Interpreter reference outcomes.
	want := make([]int64, len(argSets))
	for i, args := range argSets {
		env := interp.NewEnv()
		ret, err := interp.Call(fn, env, map[string]any{
			"p0": args[0], "p1": args[1], "p2": args[2],
		})
		if err != nil {
			t.Errorf("seed %d args %v: interp error: %v\n%s", seed, args, err, src)
			return
		}
		v, ok := ret.(int64)
		if !ok {
			t.Errorf("seed %d args %v: interp returned %T (%v), want int64\n%s", seed, args, ret, ret, src)
			return
		}
		want[i] = v
	}

	for name, tb := range targets {
		for _, opt := range []int{0, 3} {
			for i, args := range argSets {
				res, err := RunProgram(prog, tb, opt, "f", args...)
				if err != nil {
					t.Errorf("seed %d args %v: %s O%d run: %v\n%s", seed, args, name, opt, err, src)
					return
				}
				if res.Return != want[i] {
					t.Errorf("seed %d args %v: %s O%d returned %d, interp returned %d\n%s",
						seed, args, name, opt, res.Return, want[i], src)
					return
				}
			}
		}
	}
}
