package eval

import (
	"vega/internal/corpus"
	"vega/internal/interp"
)

// Case is one regression invocation: named arguments plus optional global
// overrides (ambient stubs like MF).
type Case struct {
	Args    map[string]any
	Globals map[string]any
}

// Suite builds the regression input grid for one interface function on
// one target. The grids are target-parametric: they enumerate the
// target's own fixups, registers and instructions plus out-of-range
// probes, mirroring how LLVM's regression suites exercise each target's
// own ISA surface.
func Suite(name string, u *Universe) []Case {
	if b, ok := suites[name]; ok {
		return b(u)
	}
	return nil
}

var suites = map[string]func(u *Universe) []Case{
	// --- SEL ---
	"isLegalAddressingMode": func(u *Universe) []Case {
		var cs []Case
		for _, off := range []int64{-70000, -4096, -2048, -16, 0, 15, 2047, 2048, 65536} {
			for _, scale := range []int64{0, 1, 2, 4, 8} {
				cs = append(cs, Case{Args: map[string]any{"BaseOffs": off, "HasBaseReg": true, "Scale": scale}})
			}
		}
		return cs
	},
	"getSetCCResultType": func(u *Universe) []Case { return []Case{{Args: map[string]any{}}} },
	"getBranchOpcodeForCond": func(u *Universe) []Case {
		var cs []Case
		for _, cc := range []int64{0, 1, 2, 3, 99} {
			cs = append(cs, Case{Args: map[string]any{"CC": cc}})
		}
		return cs
	},
	"getUncondBranchOpcode": func(u *Universe) []Case { return []Case{{Args: map[string]any{}}} },
	"isLegalICmpImmediate": func(u *Universe) []Case {
		var cs []Case
		for _, imm := range []int64{-70000, -2048, -1, 0, 1, 2047, 2048, 100000} {
			cs = append(cs, Case{Args: map[string]any{"Imm": imm}})
		}
		return cs
	},
	"selectLoadOpcode":  sizeGrid,
	"selectStoreOpcode": sizeGrid,
	"getCallOpcode":     func(u *Universe) []Case { return []Case{{Args: map[string]any{}}} },
	"shouldExpandSelect": func(u *Universe) []Case {
		var cs []Case
		for _, vt := range []int64{8, 16, 32, 64, 128} {
			cs = append(cs, Case{Args: map[string]any{"VT": vt}})
		}
		return cs
	},
	"selectMoveImmOpcode": func(u *Universe) []Case {
		var cs []Case
		for _, imm := range []int64{-5000, -2048, 0, 2047, 2048, 1 << 20} {
			cs = append(cs, Case{Args: map[string]any{"Imm": imm}})
		}
		return cs
	},

	// --- REG ---
	"getFrameRegister": func(u *Universe) []Case {
		return []Case{
			{Args: map[string]any{"MF": MFObj(true, 0, false, 0)}},
			{Args: map[string]any{"MF": MFObj(false, 0, false, 0)}},
		}
	},
	"getCalleeSavedRegs": func(u *Universe) []Case {
		return []Case{{Args: map[string]any{"Regs": u.RegListObj()}}}
	},
	"isReservedReg": func(u *Universe) []Case {
		var cs []Case
		for i := 0; i < u.T.NumRegs; i++ {
			cs = append(cs, Case{Args: map[string]any{"Reg": u.RegValue(i)}})
		}
		cs = append(cs, Case{Args: map[string]any{"Reg": int64(4095)}})
		return cs
	},
	"eliminateFrameIndex": func(u *Universe) []Case {
		var cs []Case
		for _, fi := range []int64{0, 1, 4, 100} {
			for _, off := range []int64{0, 4, 1024, 5000} {
				for _, ss := range []int64{0, 64} {
					cs = append(cs, Case{Args: map[string]any{
						"FrameIndex": fi, "Offset": off, "MF": MFObj(true, ss, false, 0),
					}})
				}
			}
		}
		return cs
	},
	"getStackAlignment": func(u *Universe) []Case { return []Case{{Args: map[string]any{}}} },
	"hasReservedCallFrame": func(u *Universe) []Case {
		return []Case{
			{Args: map[string]any{"MF": MFObj(true, 0, false, 0)}},
			{Args: map[string]any{"MF": MFObj(true, 0, true, 0)}},
			{Args: map[string]any{"MF": MFObj(true, 128, false, 0)}},
		}
	},

	// --- OPT ---
	"getInstSizeInBytes": opcodeGrid("Opcode"),
	"isLoadFromStackSlot": func(u *Universe) []Case {
		return miOperandGrid(u)
	},
	"isStoreToStackSlot": func(u *Universe) []Case {
		return miOperandGrid(u)
	},
	"isProfitableToHoist": func(u *Universe) []Case {
		var cs []Case
		for _, store := range []bool{false, true} {
			for _, vec := range []bool{false, true} {
				for _, br := range []bool{false, true} {
					for _, nops := range []int{0, 4} {
						ops := make([]*interp.Object, nops)
						for i := range ops {
							ops[i] = OperandObj(true, u.RegValue(i), false, 0, false)
						}
						mi := u.InstObj(0, map[string]bool{"mayStore": store, "isVector": vec, "isBranch": br}, ops...)
						cs = append(cs, Case{Args: map[string]any{"MI": mi}})
					}
				}
			}
		}
		return cs
	},
	"convertToHardwareLoop": func(u *Universe) []Case {
		var cs []Case
		ops := probeOpcodes(u.T)
		for _, op := range ops {
			for _, tc := range []int64{0, 1, 2, 10} {
				cs = append(cs, Case{Args: map[string]any{"Opcode": op, "TripCount": tc}})
			}
		}
		return cs
	},
	"enablePostRAScheduler": func(u *Universe) []Case {
		return []Case{
			{Args: map[string]any{}, Globals: map[string]any{"MF": MFObj(true, 0, false, 0)}},
			{Args: map[string]any{}, Globals: map[string]any{"MF": MFObj(true, 0, false, 2)}},
		}
	},
	"expandPseudoMove": func(u *Universe) []Case {
		return []Case{
			{Args: map[string]any{"IsImm": true}},
			{Args: map[string]any{"IsImm": false}},
		}
	},
	"expandRealtimeOp": func(u *Universe) []Case {
		return []Case{
			{Args: map[string]any{"Dir": int64(0)}},
			{Args: map[string]any{"Dir": int64(1)}},
		}
	},

	// --- SCH ---
	"getInstrLatency": opcodeGrid("Opcode"),
	"isSchedulingBoundary": func(u *Universe) []Case {
		var cs []Case
		for _, op := range probeOpcodes(u.T) {
			mi := u.InstObj(op, map[string]bool{})
			cs = append(cs, Case{Args: map[string]any{"MI": mi}})
		}
		term := u.InstObj(0, map[string]bool{"isTerminator": true})
		cs = append(cs, Case{Args: map[string]any{"MI": term}})
		return cs
	},
	"hasDelaySlot": opcodeGrid("Opcode"),
	"getSchedPriority": func(u *Universe) []Case {
		var cs []Case
		for _, br := range []bool{false, true} {
			for _, ld := range []bool{false, true} {
				for _, vec := range []bool{false, true} {
					mi := u.InstObj(0, map[string]bool{"isBranch": br, "mayLoad": ld, "isVector": vec})
					cs = append(cs, Case{Args: map[string]any{"MI": mi}})
				}
			}
		}
		return cs
	},
	"shouldClusterMemOps": func(u *Universe) []Case {
		var cs []Case
		loads := u.T.Insts(corpus.ClassLoad)
		probe := []int64{int64(loads[0].Opcode), int64(loads[len(loads)-1].Opcode), int64(u.T.InstSet[0].Opcode)}
		for _, a := range probe {
			for _, b := range probe {
				for _, n := range []int64{1, 2, 3, 4, 5, 8, 9} {
					cs = append(cs, Case{Args: map[string]any{"First": a, "Second": b, "NumLoads": n}})
				}
			}
		}
		return cs
	},

	// --- EMI ---
	"getRelocType": func(u *Universe) []Case {
		var cs []Case
		for _, kind := range fixupKindGrid(u) {
			for _, pcrel := range []bool{false, true} {
				cs = append(cs, Case{Args: map[string]any{
					"Ctx":     interp.NewObject("MCContext"),
					"Target":  ValueTargetObj(1, false),
					"Fixup":   FixupObj(kind, 0),
					"IsPCRel": pcrel,
				}})
			}
		}
		return cs
	},
	"adjustFixupValue": func(u *Universe) []Case {
		var cs []Case
		for _, kind := range fixupKindGrid(u) {
			for _, v := range []int64{0, 0x1234, 0xFFFFF, 1 << 20} {
				cs = append(cs, Case{Args: map[string]any{"Fixup": FixupObj(kind, 0), "Value": v}})
			}
		}
		return cs
	},
	"applyFixup": func(u *Universe) []Case {
		var cs []Case
		for i := range u.T.Fixups() {
			if i > 2 {
				break
			}
			for _, v := range []int64{0, 0x12345678} {
				cs = append(cs, Case{Args: map[string]any{
					"Fixup": FixupObj(u.FixupValue(i), 8),
					"Data":  u.DataObj(),
					"Value": v,
				}})
			}
		}
		return cs
	},
	"encodeInstruction": func(u *Universe) []Case {
		var cs []Case
		for _, bits := range []int64{0x11223344, 0} {
			mi := u.InstObj(int64(u.T.InstSet[0].Opcode), nil)
			mi.Fields["bits"] = bits
			cs = append(cs, Case{Args: map[string]any{
				"MI": mi, "OS": u.StreamObj(), "STI": nil,
			}})
		}
		return cs
	},
	"getMachineOpValue": func(u *Universe) []Case {
		var cs []Case
		for i := 0; i < u.T.NumRegs; i += 5 {
			cs = append(cs, Case{Args: map[string]any{
				"MI": u.InstObj(0, nil), "MO": OperandObj(true, u.RegValue(i), false, 0, false),
			}})
		}
		for _, imm := range []int64{0, 5, 4095} {
			cs = append(cs, Case{Args: map[string]any{
				"MI": u.InstObj(0, nil), "MO": OperandObj(false, 0, true, imm, false),
			}})
		}
		cs = append(cs, Case{Args: map[string]any{
			"MI": u.InstObj(0, nil), "MO": OperandObj(false, 0, false, 0, false),
		}})
		return cs
	},
	"writeNopData": func(u *Universe) []Case {
		var cs []Case
		for _, n := range []int64{0, 1, 2, 3, 4, 8, 12, 16} {
			cs = append(cs, Case{Args: map[string]any{"OS": u.StreamObj(), "Count": n}})
		}
		return cs
	},
	"getFixupKindNumBits": func(u *Universe) []Case {
		var cs []Case
		for _, kind := range fixupKindGrid(u) {
			cs = append(cs, Case{Args: map[string]any{"Kind": kind}})
		}
		return cs
	},
	"printOperand": func(u *Universe) []Case {
		var cs []Case
		mk := func(mo *interp.Object) Case {
			mi := u.InstObj(0, nil, mo)
			return Case{Args: map[string]any{"MI": mi, "OpNo": int64(0), "OS": u.StreamObj()}}
		}
		cs = append(cs, mk(OperandObj(true, u.RegValue(u.T.SPIndex), false, 0, false)))
		cs = append(cs, mk(OperandObj(true, u.RegValue(3%u.T.NumRegs), false, 0, false)))
		cs = append(cs, mk(OperandObj(false, 0, true, 42, false)))
		return cs
	},
	"getRegisterName": func(u *Universe) []Case {
		var cs []Case
		for i := 0; i < u.T.NumRegs; i += 3 {
			cs = append(cs, Case{Args: map[string]any{"Reg": u.RegValue(i)}})
		}
		cs = append(cs, Case{Args: map[string]any{"Reg": u.RegValue(u.T.SPIndex)}})
		if u.T.FPIndex >= 0 {
			cs = append(cs, Case{Args: map[string]any{"Reg": u.RegValue(u.T.FPIndex)}})
		}
		return cs
	},

	// --- ASS ---
	"matchRegisterName": func(u *Universe) []Case {
		names := []string{"sp", "fp", "ra", "zz", ""}
		names = append(names, u.T.RegName(0), u.T.RegName(u.T.NumRegs-1), u.T.RegPrefix+"99", "q7")
		var cs []Case
		for _, n := range names {
			cs = append(cs, Case{Args: map[string]any{"Name": n}})
		}
		return cs
	},
	"matchInstruction": func(u *Universe) []Case {
		set := map[string]bool{}
		var names []string
		for _, inst := range u.T.InstSet {
			if !set[inst.Mnemonic] {
				set[inst.Mnemonic] = true
				names = append(names, inst.Mnemonic)
			}
		}
		names = append(names, "nosuchop")
		var cs []Case
		for _, n := range names {
			cs = append(cs, Case{Args: map[string]any{"Mnemonic": n}})
		}
		return cs
	},
	"validateImmediate": func(u *Universe) []Case {
		var cs []Case
		for _, imm := range []int64{-70000, -4096, -2048, -3, 0, 3, 2047, 2048, 4094, 70000} {
			for _, br := range []bool{false, true} {
				cs = append(cs, Case{Args: map[string]any{"Imm": imm, "IsBranch": br}})
			}
		}
		return cs
	},
	"parseDirective": func(u *Universe) []Case {
		var cs []Case
		for _, d := range []string{".word", ".align", ".reloc", ".set", ".cc_top", ".cc_bottom", ".foo"} {
			cs = append(cs, Case{Args: map[string]any{"Directive": d}})
		}
		return cs
	},
	"isValidCPU": func(u *Universe) []Case {
		var cs []Case
		for _, c := range []string{"generic", u.T.ProcName, "generic-" + lowerName(u.T), "mips32r2", "cortex-a8", "x"} {
			cs = append(cs, Case{Args: map[string]any{"CPU": c}})
		}
		return cs
	},

	// --- DIS ---
	"decodeGPRRegisterClass": func(u *Universe) []Case {
		var cs []Case
		for _, n := range []int64{0, 1, int64(u.T.NumRegs) - 1, int64(u.T.NumRegs), 100} {
			cs = append(cs, Case{Args: map[string]any{"MI": u.InstObj(0, nil), "RegNo": n}})
		}
		return cs
	},
	"decodeSImmOperand": func(u *Universe) []Case {
		var cs []Case
		for _, imm := range []int64{0, 1, 0x7FF, 0x800, 0xFFF, 0xFFFFF} {
			cs = append(cs, Case{Args: map[string]any{"MI": u.InstObj(0, nil), "Imm": imm}})
		}
		return cs
	},
	"getInstructionOpcode": func(u *Universe) []Case {
		var cs []Case
		for _, op := range probeOpcodes(u.T) {
			cs = append(cs, Case{Args: map[string]any{"MI": u.InstObj(0, nil), "Insn": op}})
		}
		return cs
	},
}

func sizeGrid(u *Universe) []Case {
	var cs []Case
	for _, s := range []int64{1, 2, 4, 8} {
		cs = append(cs, Case{Args: map[string]any{"Size": s}})
	}
	return cs
}

// opcodeGrid probes every instruction opcode of the target plus an
// unknown one.
func opcodeGrid(param string) func(u *Universe) []Case {
	return func(u *Universe) []Case {
		var cs []Case
		for _, op := range probeOpcodes(u.T) {
			cs = append(cs, Case{Args: map[string]any{param: op}})
		}
		return cs
	}
}

// probeOpcodes lists all target opcodes plus an out-of-set probe.
func probeOpcodes(t *corpus.TargetSpec) []int64 {
	var out []int64
	for _, inst := range t.InstSet {
		out = append(out, int64(inst.Opcode))
	}
	return append(out, 9999)
}

// miOperandGrid covers opcode × frame-index operand combinations.
func miOperandGrid(u *Universe) []Case {
	var cs []Case
	for _, op := range probeOpcodes(u.T) {
		for _, fi := range []bool{false, true} {
			mo0 := OperandObj(true, u.RegValue(1), false, 0, false)
			mo1 := OperandObj(false, 0, false, 0, fi)
			mi := u.InstObj(op, nil, mo0, mo1)
			cs = append(cs, Case{Args: map[string]any{"MI": mi}})
		}
	}
	return cs
}

// fixupKindGrid lists every target fixup value plus core data fixups and
// an invalid probe.
func fixupKindGrid(u *Universe) []int64 {
	var out []int64
	for i := range u.T.Fixups() {
		out = append(out, u.FixupValue(i))
	}
	out = append(out, 3, 4, 999) // FK_Data_4, FK_Data_8, invalid
	return out
}

func lowerName(t *corpus.TargetSpec) string {
	b := []byte(t.Name)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 32
		}
	}
	return string(b)
}
