// Package sim executes compiled objects from internal/compiler on a
// cycle-counting virtual machine — the offline stand-in for the paper's
// QEMU (RISC-V), PULP RTL platform (RI5CY) and XSIM (xCORE). It both
// verifies functional results (so -O0 and -O3 must agree, and a corrected
// VEGA backend must match its base compiler) and charges per-instruction
// cycles from the backend's latency tables.
package sim

import (
	"fmt"
	"maps"
	"slices"

	"vega/internal/compiler"
)

// Result is one program run's outcome.
type Result struct {
	Return       int64
	Cycles       int64
	Instructions int64
}

// The machine is sized for the benchmark workloads.
const (
	maxInstructions = 80_000_000
	memoryWords     = 1 << 16
	branchPenalty   = 1 // extra cycles on a taken branch
	callPenalty     = 2
)

// machine executes one object.
type machine struct {
	obj    *compiler.Object
	tables *compiler.Tables

	mem       []int64
	arrayBase map[string]int
	heapTop   int
}

// RunProgram compiles a program with the tables at an optimization level
// and runs its entry function on a fresh machine: arrays are laid out at
// the bottom of memory, frames grow from the top.
func RunProgram(p *compiler.Program, tb *compiler.Tables, opt int, entry string, args ...int64) (Result, error) {
	var res Result
	obj, err := compiler.Compile(p, tb, opt)
	if err != nil {
		return res, err
	}
	vm := &machine{obj: obj, tables: tb,
		mem:       make([]int64, memoryWords),
		arrayBase: map[string]int{},
	}
	top := 0
	// Deterministic layout: sorted names.
	for _, name := range slices.Sorted(maps.Keys(obj.Arrays)) {
		vm.arrayBase[name] = top
		top += obj.Arrays[name]
	}
	vm.heapTop = top
	if top >= memoryWords/2 {
		return res, fmt.Errorf("sim: arrays exceed memory")
	}
	for name, vals := range obj.Init {
		base, ok := vm.arrayBase[name]
		if !ok {
			return res, fmt.Errorf("sim: init for unknown array %q", name)
		}
		copy(vm.mem[base:], vals)
	}
	res.Return, err = vm.call(entry, args, memoryWords-64, &res, 0)
	return res, err
}

type hwLoop struct {
	start, end int
	count      int64
}

func (vm *machine) call(fn string, args []int64, frameBase int, res *Result, depth int) (int64, error) {
	if depth > 64 {
		return 0, fmt.Errorf("sim: call depth exceeded")
	}
	f, ok := vm.obj.Funcs[fn]
	if !ok {
		return 0, fmt.Errorf("sim: unknown function %q", fn)
	}
	if frameBase-f.FrameSlots <= vm.heapTop {
		return 0, fmt.Errorf("sim: stack overflow")
	}
	regs := make([]int64, 64)
	for i, a := range args {
		regs[4+i] = a
	}
	slots := frameBase - f.FrameSlots

	// Prologue/epilogue cost: one store + one load per saved register.
	saveCost := int64(len(f.SavedRegs)) * int64(vm.lat(vm.tables.StoreOp)+vm.lat(vm.tables.LoadOp))
	res.Cycles += saveCost
	res.Instructions += int64(2 * len(f.SavedRegs))

	var loops []hwLoop
	pc := 0
	for {
		if pc < 0 || pc >= len(f.Code) {
			return regs[1], nil // fell off the end: implicit return
		}
		if res.Instructions > maxInstructions {
			return 0, fmt.Errorf("sim: instruction budget exceeded in %q", fn)
		}
		in := f.Code[pc]
		res.Instructions++
		res.Cycles += int64(vm.lat(in.Opcode))

		switch in.Kind {
		case compiler.KMovImm:
			regs[in.Dst] = in.Imm
		case compiler.KMov:
			regs[in.Dst] = regs[in.A]
		case compiler.KAlu:
			v, err := alu(in.Op, regs[in.A], regs[in.B])
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
			// Multiplies and divides cost extra on every target.
			if in.Op == "*" {
				res.Cycles += 2
			}
			if in.Op == "/" || in.Op == "%" {
				res.Cycles += 8
			}
		case compiler.KLoad:
			addr, err := vm.address(in, regs, slots)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = vm.mem[addr]
		case compiler.KStore:
			addr, err := vm.address(in, regs, slots)
			if err != nil {
				return 0, err
			}
			vm.mem[addr] = regs[in.B]
		case compiler.KBr:
			pc = in.Target
			res.Cycles += branchPenalty
			continue
		case compiler.KBrCond:
			take, err := compare(in.Op, regs[in.A], regs[in.B])
			if err != nil {
				return 0, err
			}
			if take {
				pc = in.Target
				res.Cycles += branchPenalty
				continue
			}
		case compiler.KCall:
			res.Cycles += callPenalty
			ret, err := vm.call(in.Sym, regs[4:8], slots, res, depth+1)
			if err != nil {
				return 0, err
			}
			regs[1] = ret
		case compiler.KRet:
			res.Cycles += saveCost // epilogue restores
			return regs[1], nil
		case compiler.KLoopStart:
			loops = append(loops, hwLoop{start: pc + 1, end: in.Target, count: regs[in.A]})
		case compiler.KSIMD:
			if err := vm.simd(in, regs); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("sim: unknown instruction kind %d", in.Kind)
		}
		pc++
		// Hardware loop back-edges are free: when the pc reaches the loop
		// end, jump back until the count drains.
		if n := len(loops); n > 0 && pc == loops[n-1].end {
			loops[n-1].count--
			if loops[n-1].count > 0 {
				pc = loops[n-1].start
			} else {
				loops = loops[:n-1]
			}
		}
	}
}

func (vm *machine) lat(opcode int) int {
	if l, ok := vm.tables.Latency[opcode]; ok {
		return l
	}
	return 1
}

// address resolves a load/store: array symbol + index register, or a
// frame slot.
func (vm *machine) address(in compiler.MInst, regs []int64, slots int) (int, error) {
	if in.Sym == "" {
		return slots + int(in.Imm), nil
	}
	base, ok := vm.arrayBase[in.Sym]
	if !ok {
		return 0, fmt.Errorf("sim: unknown array %q", in.Sym)
	}
	idx := int(regs[in.A])
	if idx < 0 || idx >= vm.obj.Arrays[in.Sym] {
		return 0, fmt.Errorf("sim: index %d out of range for %q", idx, in.Sym)
	}
	return base + idx, nil
}

func (vm *machine) simd(in compiler.MInst, regs []int64) error {
	i := int(regs[in.A])
	dst, ok1 := vm.arrayBase[in.SymDst]
	a, ok2 := vm.arrayBase[in.Sym]
	b, ok3 := vm.arrayBase[in.Sym2]
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("sim: SIMD over unknown arrays")
	}
	if i < 0 || i+4 > vm.obj.Arrays[in.SymDst] || i+4 > vm.obj.Arrays[in.Sym] || i+4 > vm.obj.Arrays[in.Sym2] {
		return fmt.Errorf("sim: SIMD lane out of range at %d", i)
	}
	for k := 0; k < 4; k++ {
		v, err := alu(in.Op, vm.mem[a+i+k], vm.mem[b+i+k])
		if err != nil {
			return err
		}
		vm.mem[dst+i+k] = v
	}
	return nil
}

func alu(op string, a, b int64) (int64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("sim: division by zero")
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, fmt.Errorf("sim: modulo by zero")
		}
		return a % b, nil
	case "&":
		return a & b, nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "<<":
		return a << uint(b&63), nil
	case ">>":
		return a >> uint(b&63), nil
	}
	// Comparisons as values.
	t, err := compare(op, a, b)
	if err != nil {
		return 0, err
	}
	if t {
		return 1, nil
	}
	return 0, nil
}

func compare(op string, a, b int64) (bool, error) {
	switch op {
	case "==":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("sim: unknown comparison %q", op)
}
