package corpus

// stdInsts builds a target's instruction set from its mnemonic table and
// feature flags. Opcodes, sizes and latencies vary deterministically with
// the base so that encoders and schedulers differ across targets.
func stdInsts(base int, size int, names map[InstClass][]string, hwloop, simd, rtio bool) []InstSpec {
	var out []InstSpec
	add := func(class InstClass, mnems []string, lat int) {
		for i, m := range mnems {
			out = append(out, InstSpec{
				Enum:     upper(m),
				Mnemonic: m,
				Class:    class,
				Opcode:   base + len(out),
				Size:     size,
				Latency:  lat + i%2,
			})
		}
	}
	add(ClassALU, names[ClassALU], 1)
	add(ClassMove, names[ClassMove], 1)
	add(ClassLoad, names[ClassLoad], 3)
	add(ClassStore, names[ClassStore], 1)
	add(ClassBranch, names[ClassBranch], 2)
	add(ClassCall, names[ClassCall], 2)
	if hwloop {
		add(ClassLoop, names[ClassLoop], 1)
	}
	if simd {
		add(ClassSIMD, names[ClassSIMD], 2)
	}
	if rtio {
		add(ClassIO, names[ClassIO], 4)
	}
	return out
}

var riscNames = map[InstClass][]string{
	ClassALU:    {"add", "sub", "and", "or", "xor", "sll", "srl"},
	ClassMove:   {"mv", "lui"},
	ClassLoad:   {"lw", "lh", "lb"},
	ClassStore:  {"sw", "sh", "sb"},
	ClassBranch: {"beq", "bne", "jal"},
	ClassCall:   {"call"},
	ClassLoop:   {"lp_starti", "lp_endi", "lp_count"},
	ClassSIMD:   {"pv_add_h", "pv_sub_h", "pv_dotsp_h"},
	ClassIO:     {"outw", "inw", "setc"},
}

var ciscNames = map[InstClass][]string{
	ClassALU:    {"addl", "subl", "andl", "orl", "xorl", "shll", "shrl"},
	ClassMove:   {"movl", "leal"},
	ClassLoad:   {"movzxl", "movsxb"},
	ClassStore:  {"movsl", "pushq"},
	ClassBranch: {"je", "jne", "jmp"},
	ClassCall:   {"calll"},
}

var armNames = map[InstClass][]string{
	ClassALU:    {"add", "sub", "and", "orr", "eor", "lsl", "lsr"},
	ClassMove:   {"mov", "movt"},
	ClassLoad:   {"ldr", "ldrh", "ldrb"},
	ClassStore:  {"str", "strh", "strb"},
	ClassBranch: {"beq", "bne", "b"},
	ClassCall:   {"bl"},
	ClassSIMD:   {"vadd", "vsub", "vmul"},
}

var mipsNames = map[InstClass][]string{
	ClassALU:    {"addu", "subu", "and", "or", "xor", "sllv", "srlv"},
	ClassMove:   {"move", "lui"},
	ClassLoad:   {"lw", "lhu", "lbu"},
	ClassStore:  {"sw", "sh", "sb"},
	ClassBranch: {"beq", "bne", "j"},
	ClassCall:   {"jal"},
}

var dspNames = map[InstClass][]string{
	ClassALU:    {"A2_add", "A2_sub", "A2_and", "A2_or", "A2_xor", "S2_asl", "S2_lsr"},
	ClassMove:   {"A2_tfr", "A2_tfrsi"},
	ClassLoad:   {"L2_loadri", "L2_loadrh", "L2_loadrb"},
	ClassStore:  {"S2_storeri", "S2_storerh", "S2_storerb"},
	ClassBranch: {"J2_jumpt", "J2_jumpf", "J2_jump"},
	ClassCall:   {"J2_call"},
	ClassLoop:   {"J2_loop0i", "J2_loop1i", "J2_endloop"},
	ClassSIMD:   {"V6_vadd", "V6_vsub", "V6_vmpy"},
}

var xcoreNames = map[InstClass][]string{
	ClassALU:    {"add", "sub", "and", "or", "xor", "shl", "shr"},
	ClassMove:   {"mkmsk", "ldc"},
	ClassLoad:   {"ldw", "ld16s", "ld8u"},
	ClassStore:  {"stw", "st16", "st8"},
	ClassBranch: {"bt", "bf", "bu"},
	ClassCall:   {"bl"},
	ClassIO:     {"out", "in", "setc"},
}

// Targets returns the full fleet: training backends plus the three
// held-out evaluation targets (RISCV, RI5CY, XCORE).
func Targets() []*TargetSpec {
	stdFix := []FixupKind{FixHi, FixLo, FixBranch, FixJump, FixCall, FixAbs32}
	richFix := append(append([]FixupKind{}, stdFix...), FixPCRelHi, FixPCRelLo, FixGotHi)
	ts := []*TargetSpec{
		// --- training backends, patterned on real LLVM targets ---
		{
			Name: "ARM", TdName: "ARM", Style: StyleLower, PtrBits: 32, StackAlign: 8,
			LoBits: 16, ProcName: "cortex-a8", RegSymbol: "",
			NumRegs: 16, RegPrefix: "r", SPIndex: 13, FPIndex: 11, RAIndex: 14,
			CalleeSaved:    []int{4, 5, 6, 7, 8, 9, 10, 11},
			HasVariantKind: true, HasSIMD: true, HasDisassembler: true, CmpUsesFlags: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0x10, 4, armNames, false, true, false),
		},
		{
			Name: "Mips", TdName: "Mips", Style: StyleUpper, BigEndian: true, PtrBits: 32, StackAlign: 8,
			LoBits: 16, ProcName: "mips32r2", RegSymbol: "$",
			NumRegs: 32, RegPrefix: "r", SPIndex: 29, FPIndex: 30, RAIndex: 31,
			CalleeSaved:     []int{16, 17, 18, 19, 20, 21, 22, 23, 30},
			HasDisassembler: true, HasDelaySlots: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0x20, 4, mipsNames, false, false, false),
		},
		{
			Name: "X86", TdName: "X86", Style: StyleShort, PtrBits: 64, StackAlign: 16,
			LoBits: 16, ProcName: "x86-64", RegSymbol: "%",
			NumRegs: 16, RegPrefix: "r", SPIndex: 4, FPIndex: 5, RAIndex: -1,
			CalleeSaved:     []int{3, 5, 12, 13, 14, 15},
			HasDisassembler: true, CmpUsesFlags: true,
			FixupKinds: []FixupKind{FixAbs32, FixAbs64, FixPCRelHi, FixCall, FixGotHi, FixTLS},
			InstSet:    stdInsts(0x30, 1, ciscNames, false, false, false),
		},
		{
			Name: "PPC", TdName: "PowerPC", Style: StyleLower, BigEndian: true, PtrBits: 64, StackAlign: 16,
			LoBits: 16, ProcName: "ppc64le", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 1, FPIndex: 31, RAIndex: -1,
			CalleeSaved:    []int{14, 15, 16, 17, 18, 19, 20},
			HasVariantKind: true, HasSIMD: true, HasDisassembler: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0x40, 4, riscNames, false, true, false),
		},
		{
			Name: "Sparc", TdName: "Sparc", Style: StyleUpper, BigEndian: true, PtrBits: 32, StackAlign: 8,
			LoBits: 13, ProcName: "v9", RegSymbol: "%",
			NumRegs: 32, RegPrefix: "g", SPIndex: 14, FPIndex: 30, RAIndex: 15,
			CalleeSaved:     []int{16, 17, 18, 19, 20, 21, 22, 23},
			HasDisassembler: true, HasDelaySlots: true,
			FixupKinds: stdFix,
			InstSet:    stdInsts(0x50, 4, mipsNames, false, false, false),
		},
		{
			Name: "Hexagon", TdName: "Hexagon", Style: StyleLower, PtrBits: 32, StackAlign: 8,
			LoBits: 12, ProcName: "hexagonv60", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 29, FPIndex: 30, RAIndex: 31,
			CalleeSaved:     []int{16, 17, 18, 19, 20, 21, 22, 23, 24},
			HasHardwareLoop: true, HasSIMD: true, HasDisassembler: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0x60, 4, dspNames, true, true, false),
		},
		{
			Name: "Lanai", TdName: "Lanai", Style: StyleShort, BigEndian: true, PtrBits: 32, StackAlign: 8,
			LoBits: 16, ProcName: "v11", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 4, FPIndex: 5, RAIndex: 15,
			CalleeSaved:     []int{16, 17, 18, 19, 20, 21},
			HasDisassembler: true,
			FixupKinds:      stdFix,
			InstSet:         stdInsts(0x70, 4, riscNames, false, false, false),
		},
		{
			Name: "MSP430", TdName: "MSP430", Style: StyleShort, PtrBits: 16, StackAlign: 2,
			LoBits: 16, ProcName: "msp430x", RegSymbol: "",
			NumRegs: 16, RegPrefix: "r", SPIndex: 1, FPIndex: 4, RAIndex: -1,
			CalleeSaved:  []int{4, 5, 6, 7, 8, 9, 10},
			CmpUsesFlags: true,
			FixupKinds:   []FixupKind{FixHi, FixLo, FixBranch, FixCall, FixAbs32},
			InstSet:      stdInsts(0x80, 2, ciscNames, false, false, false),
		},
		{
			Name: "AVR", TdName: "AVR", Style: StyleLower, PtrBits: 16, StackAlign: 1,
			LoBits: 8, ProcName: "atmega328", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 28, FPIndex: 28, RAIndex: -1,
			CalleeSaved:  []int{2, 3, 4, 5, 6, 7, 8, 9},
			CmpUsesFlags: true,
			FixupKinds:   []FixupKind{FixHi, FixLo, FixBranch, FixCall, FixAbs32},
			InstSet:      stdInsts(0x90, 2, riscNames, false, false, false),
		},
		{
			Name: "SystemZ", TdName: "SystemZ", Style: StyleShort, BigEndian: true, PtrBits: 64, StackAlign: 8,
			LoBits: 16, ProcName: "z13", RegSymbol: "%",
			NumRegs: 16, RegPrefix: "r", SPIndex: 15, FPIndex: 11, RAIndex: 14,
			CalleeSaved:    []int{6, 7, 8, 9, 10, 11, 12, 13},
			HasVariantKind: true, HasDisassembler: true, CmpUsesFlags: true,
			FixupKinds: []FixupKind{FixAbs32, FixAbs64, FixPCRelHi, FixCall, FixTLS},
			InstSet:    stdInsts(0xA0, 4, ciscNames, false, false, false),
		},
		{
			Name: "AArch64", TdName: "AArch64", Style: StyleLower, PtrBits: 64, StackAlign: 16,
			LoBits: 12, ProcName: "cortex-a53", RegSymbol: "",
			NumRegs: 32, RegPrefix: "x", SPIndex: 31, FPIndex: 29, RAIndex: 30,
			CalleeSaved:    []int{19, 20, 21, 22, 23, 24, 25, 26, 27, 28},
			HasVariantKind: true, HasSIMD: true, HasDisassembler: true, CmpUsesFlags: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0xB0, 4, armNames, false, true, false),
		},
		{
			Name: "BPF", TdName: "BPF", Style: StyleShort, PtrBits: 64, StackAlign: 8,
			LoBits: 16, ProcName: "v2", RegSymbol: "",
			NumRegs: 11, RegPrefix: "r", SPIndex: 10, FPIndex: 10, RAIndex: -1,
			CalleeSaved: []int{6, 7, 8, 9},
			FixupKinds:  []FixupKind{FixAbs32, FixAbs64, FixCall},
			InstSet:     stdInsts(0xC0, 8, riscNames, false, false, false),
		},
		{
			Name: "VE", TdName: "VE", Style: StyleLower, PtrBits: 64, StackAlign: 16,
			LoBits: 12, ProcName: "ve1", RegSymbol: "%",
			NumRegs: 64, RegPrefix: "s", SPIndex: 11, FPIndex: 9, RAIndex: 10,
			CalleeSaved:    []int{18, 19, 20, 21, 22, 23, 24},
			HasVariantKind: true, HasSIMD: true, HasDisassembler: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0xD0, 8, riscNames, false, true, false),
		},
		{
			Name: "ARC", TdName: "ARC", Style: StyleCamel, PtrBits: 32, StackAlign: 4,
			LoBits: 9, ProcName: "archs", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 28, FPIndex: 27, RAIndex: 31,
			CalleeSaved:     []int{13, 14, 15, 16, 17, 18},
			HasHardwareLoop: true, HasDisassembler: true,
			FixupKinds: stdFix,
			InstSet:    stdInsts(0xE0, 4, riscNames, true, false, false),
		},
		{
			Name: "CSKY", TdName: "CSKY", Style: StyleLower, PtrBits: 32, StackAlign: 4,
			LoBits: 12, ProcName: "ck810", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 14, FPIndex: 8, RAIndex: 15,
			CalleeSaved:     []int{4, 5, 6, 7, 8, 9, 10, 11},
			HasHardwareLoop: true, HasSIMD: true, HasDisassembler: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0xF0, 4, riscNames, true, true, false),
		},
		{
			Name: "Xtensa", TdName: "Xtensa", Style: StyleCamel, PtrBits: 32, StackAlign: 4,
			LoBits: 8, ProcName: "esp32", RegSymbol: "",
			NumRegs: 16, RegPrefix: "a", SPIndex: 1, FPIndex: 15, RAIndex: 0,
			CalleeSaved:     []int{12, 13, 14, 15},
			HasHardwareLoop: true,
			FixupKinds:      stdFix,
			InstSet:         stdInsts(0x100, 3, riscNames, true, false, false),
		},
		{
			Name: "NIOS2", TdName: "Nios2", Style: StyleUpper, PtrBits: 32, StackAlign: 4,
			LoBits: 16, ProcName: "nios2r1", RegSymbol: "",
			NumRegs: 32, RegPrefix: "r", SPIndex: 27, FPIndex: 28, RAIndex: 31,
			CalleeSaved:   []int{16, 17, 18, 19, 20, 21, 22},
			HasDelaySlots: true,
			FixupKinds:    stdFix,
			InstSet:       stdInsts(0x110, 4, mipsNames, false, false, false),
		},

		// --- held-out evaluation targets ---
		{
			Name: "RISCV", TdName: "RISCV", Style: StyleLower, PtrBits: 32, StackAlign: 16,
			LoBits: 12, ProcName: "generic-rv32", RegSymbol: "",
			NumRegs: 32, RegPrefix: "x", SPIndex: 2, FPIndex: 8, RAIndex: 1,
			CalleeSaved:     []int{8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27},
			HasDisassembler: true,
			FixupKinds:      richFix,
			InstSet:         stdInsts(0x120, 4, riscNames, false, false, false),
			Eval:            true,
		},
		{
			Name: "RI5CY", TdName: "RI5CY", Style: StyleLower, PtrBits: 32, StackAlign: 16,
			LoBits: 12, ProcName: "pulp-ri5cy", RegSymbol: "",
			NumRegs: 32, RegPrefix: "x", SPIndex: 2, FPIndex: 8, RAIndex: 1,
			CalleeSaved:     []int{8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27},
			HasHardwareLoop: true, HasSIMD: true, HasDisassembler: true,
			FixupKinds: richFix,
			InstSet:    stdInsts(0x130, 4, riscNames, true, true, false),
			Eval:       true,
		},
		{
			Name: "XCore", TdName: "XCore", Style: StyleShort, PtrBits: 32, StackAlign: 4,
			LoBits: 10, ProcName: "xs1b-generic", RegSymbol: "",
			NumRegs: 12, RegPrefix: "r", SPIndex: 11, FPIndex: 10, RAIndex: -1,
			CalleeSaved: []int{4, 5, 6, 7, 8, 9, 10},
			HasRealtime: true, // thread scheduler / synchronization ISA
			// LLVM 3.0 lacks the XCore disassembler module (paper §4.1.4).
			HasDisassembler: false,
			FixupKinds:      []FixupKind{FixHi, FixLo, FixBranch, FixCall, FixAbs32},
			InstSet:         stdInsts(0x140, 2, xcoreNames, false, false, true),
			Eval:            true,
		},
	}
	return ts
}

// EvalTargets returns the three held-out targets.
func EvalTargets() []*TargetSpec {
	var out []*TargetSpec
	for _, t := range Targets() {
		if t.Eval {
			out = append(out, t)
		}
	}
	return out
}

// FindTarget looks a target up by name.
func FindTarget(name string) *TargetSpec {
	for _, t := range Targets() {
		if t.Name == name {
			return t
		}
	}
	return nil
}
