package compiler

import (
	"fmt"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// Tables is everything codegen needs to know about a target backend. It
// is produced either straight from a TargetSpec or — the interesting path
// — by interrogating a backend's interface functions in the interpreter,
// which is how a corrected VEGA-generated backend drives the compiler.
type Tables struct {
	Target string

	ALUOp   map[string]int // source operator -> opcode
	LoadOp  int
	StoreOp int
	MoveImm int // load-constant opcode
	BrEq    int
	BrNe    int
	BrUnc   int
	CallOp  int

	// Optional ISA extensions (0 = unavailable).
	HWLoopStart int
	SIMDAdd     int

	Latency map[int]int // opcode -> cycles
	Size    map[int]int // opcode -> bytes

	NumRegs     int
	SPIndex     int
	CalleeSaved []int
}

// aluSourceOps maps source operators to the index into the target's ALU
// instruction list (add, sub, and, or, xor, shl, shr).
var aluSourceOps = map[string]int{
	"+": 0, "-": 1, "&": 2, "|": 3, "^": 4, "<<": 5, ">>": 6,
	// Multiplication and division lower through the first ALU op when the
	// target has no dedicated unit; cost model handles the difference.
	"*": 0, "/": 1, "%": 1,
}

// TablesFromSpec extracts tables directly from a target specification
// (the "base compiler" path).
func TablesFromSpec(t *corpus.TargetSpec) *Tables {
	tb := &Tables{
		Target:  t.Name,
		ALUOp:   map[string]int{},
		Latency: map[int]int{},
		Size:    map[int]int{},
	}
	alu := t.Insts(corpus.ClassALU)
	for op, idx := range aluSourceOps {
		tb.ALUOp[op] = alu[idx%len(alu)].Opcode
	}
	loads := t.Insts(corpus.ClassLoad)
	stores := t.Insts(corpus.ClassStore)
	moves := t.Insts(corpus.ClassMove)
	branches := t.Insts(corpus.ClassBranch)
	tb.LoadOp = loads[0].Opcode
	tb.StoreOp = stores[0].Opcode
	tb.MoveImm = moves[len(moves)-1].Opcode
	tb.BrEq = branches[0].Opcode
	tb.BrNe = branches[1%len(branches)].Opcode
	tb.BrUnc = branches[len(branches)-1].Opcode
	tb.CallOp = t.Inst(corpus.ClassCall).Opcode
	if t.HasHardwareLoop {
		tb.HWLoopStart = t.Inst(corpus.ClassLoop).Opcode
	}
	if t.HasSIMD {
		tb.SIMDAdd = t.Inst(corpus.ClassSIMD).Opcode
	}
	for _, inst := range t.InstSet {
		tb.Latency[inst.Opcode] = inst.Latency
		tb.Size[inst.Opcode] = inst.Size
	}
	tb.NumRegs = t.NumRegs
	tb.SPIndex = t.SPIndex
	tb.CalleeSaved = append([]int{}, t.CalleeSaved...)
	return tb
}

// BackendQuerier runs a backend's interface functions to answer codegen
// questions. fns maps interface-function names to parsed implementations.
type BackendQuerier struct {
	T   *corpus.TargetSpec
	Fns map[string]*cpp.Node
	Env *interp.Env
}

// TablesFromBackend extracts tables by querying a backend's functions —
// selectLoadOpcode, getBranchOpcodeForCond, getInstrLatency, and friends —
// in the interpreter. env must be the target's evaluation universe.
func TablesFromBackend(t *corpus.TargetSpec, fns map[string]*cpp.Node, env *interp.Env) (*Tables, error) {
	q := &BackendQuerier{T: t, Fns: fns, Env: env}
	tb := TablesFromSpec(t) // sizes/latencies fall back to the spec
	tb.ALUOp = map[string]int{}
	alu := t.Insts(corpus.ClassALU)
	for op, idx := range aluSourceOps {
		tb.ALUOp[op] = alu[idx%len(alu)].Opcode
	}

	var err error
	if tb.LoadOp, err = q.callInt("selectLoadOpcode", map[string]any{"Size": int64(4)}); err != nil {
		return nil, err
	}
	if tb.StoreOp, err = q.callInt("selectStoreOpcode", map[string]any{"Size": int64(4)}); err != nil {
		return nil, err
	}
	if tb.MoveImm, err = q.callInt("selectMoveImmOpcode", map[string]any{"Imm": int64(1 << 20)}); err != nil {
		return nil, err
	}
	if tb.BrEq, err = q.callInt("getBranchOpcodeForCond", map[string]any{"CC": int64(0)}); err != nil {
		return nil, err
	}
	if tb.BrNe, err = q.callInt("getBranchOpcodeForCond", map[string]any{"CC": int64(1)}); err != nil {
		return nil, err
	}
	if tb.BrUnc, err = q.callInt("getUncondBranchOpcode", nil); err != nil {
		return nil, err
	}
	if tb.CallOp, err = q.callInt("getCallOpcode", nil); err != nil {
		return nil, err
	}
	// Latencies through the scheduler interface.
	for _, inst := range t.InstSet {
		lat, err := q.callInt("getInstrLatency", map[string]any{"Opcode": int64(inst.Opcode)})
		if err != nil {
			return nil, err
		}
		tb.Latency[inst.Opcode] = lat
	}
	// Hardware loops through the OPT interface.
	tb.HWLoopStart = 0
	if _, ok := fns["convertToHardwareLoop"]; ok {
		branches := t.Insts(corpus.ClassBranch)
		op, err := q.callInt("convertToHardwareLoop", map[string]any{
			"Opcode": int64(branches[0].Opcode), "TripCount": int64(8),
		})
		if err == nil && op != 0 {
			tb.HWLoopStart = op
		}
	}
	tb.SIMDAdd = 0
	if t.HasSIMD {
		tb.SIMDAdd = t.Inst(corpus.ClassSIMD).Opcode
	}
	// Callee-saved registers through the REG interface.
	if fn, ok := fns["getCalleeSavedRegs"]; ok {
		var pushed []int
		regs := interp.NewObject("RegList").On("push_back", func(args []any) (any, error) {
			if err := interp.NeedArgs("push_back", args, 1); err != nil {
				return nil, err
			}
			if v, ok := args[0].(int64); ok {
				pushed = append(pushed, int(v)-1000)
			}
			return nil, nil
		})
		if _, err := interp.Call(fn, q.Env, map[string]any{"Regs": regs}); err != nil {
			return nil, fmt.Errorf("compiler: getCalleeSavedRegs: %w", err)
		}
		tb.CalleeSaved = pushed
	}
	return tb, nil
}

func (q *BackendQuerier) callInt(name string, args map[string]any) (int, error) {
	fn, ok := q.Fns[name]
	if !ok {
		return 0, fmt.Errorf("compiler: backend lacks %s", name)
	}
	ret, err := interp.Call(fn, q.Env, args)
	if err != nil {
		return 0, fmt.Errorf("compiler: %s: %w", name, err)
	}
	v, ok := ret.(int64)
	if !ok {
		return 0, fmt.Errorf("compiler: %s returned %T", name, ret)
	}
	return int(v), nil
}
