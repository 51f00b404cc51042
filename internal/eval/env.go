// Package eval is VEGA's regression-test harness: the offline stand-in
// for running LLVM's regression suites against a compiler whose functions
// were substituted one at a time (the paper's pass@1). Each interface
// function has an input grid; the generated implementation and the
// reference run side by side in the interpreter and must agree on every
// observable outcome (return value, emitted effects, aborts).
package eval

import (
	"fmt"
	"strconv"
	"strings"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// regBase offsets register enum values so they collide with nothing else.
const regBase = 1000

// FirstTargetFixupKind mirrors llvm/MC/MCFixup.h.
const firstTargetFixupKind = 128

// Universe is the symbol and stub environment of one target, shared by
// every regression case. Its first RunCase builds the case-independent
// interpreter environment (enums, target symbols, builtins and the
// sibling-function stubs), and every later case shares it: the
// interpreter never writes an environment's maps, and a case that
// overrides globals gets its own copy of the Globals map. A Universe is
// single-goroutine: cases record effects into it.
type Universe struct {
	T       *corpus.TargetSpec
	Backend *corpus.Backend
	// effects collects observable side effects during one case run.
	effects []string
	// base is the environment RunCase builds once; running is the
	// environment of the case in flight, which the sibling stubs in
	// base.Funcs call into.
	base, running *interp.Env
}

// NewUniverse builds the universe for a target's backend.
func NewUniverse(b *corpus.Backend) *Universe {
	return &Universe{T: b.Target, Backend: b}
}

// FixupValue returns the enum value of the i-th target fixup.
func (u *Universe) FixupValue(i int) int64 { return int64(firstTargetFixupKind + i) }

// RegValue returns the enum value of register i.
func (u *Universe) RegValue(i int) int64 { return int64(regBase + i) }

// Effect records an observable side effect.
func (u *Universe) Effect(format string, args ...any) {
	u.effects = append(u.effects, fmt.Sprintf(format, args...))
}

// ResetEffects clears collected effects before a case run.
func (u *Universe) ResetEffects() { u.effects = nil }

// Effects returns a copy of the collected effects.
func (u *Universe) Effects() []string {
	return append([]string{}, u.effects...)
}

// Env builds a fresh interpreter environment bound to this universe,
// independent of the one RunCase reuses. optLevel parametrizes the
// ambient MachineFunction stub.
func (u *Universe) Env(optLevel int64) *interp.Env {
	var env *interp.Env
	env = u.buildEnv(optLevel, func() *interp.Env { return env })
	return env
}

// buildEnv builds an interpreter environment whose sibling-function
// stubs run in the environment caller returns at call time.
func (u *Universe) buildEnv(optLevel int64, caller func() *interp.Env) *interp.Env {
	env := interp.NewEnv()
	t := u.T

	// Core enums.
	for name, v := range map[string]int64{
		"FK_NONE": 0, "FK_Data_1": 1, "FK_Data_2": 2, "FK_Data_4": 3, "FK_Data_8": 4,
		"FirstTargetFixupKind": firstTargetFixupKind,
		"Fail":                 0, "SoftFail": 1, "Success": 3,
		"Match_Success": 0, "Match_InvalidOperand": 1, "Match_MnemonicFail": 2, "Match_MissingFeature": 3,
		"NoRegister": 4095,
		"SETEQ":      0, "SETNE": 1, "SETLT": 2, "SETGT": 3,
		"VK_None": 0, "VK_PLT": 1, "VK_GOT": 2,
	} {
		env.Globals[name] = v
	}
	for name, v := range map[string]int64{"i8": 8, "i16": 16, "i32": 32, "i64": 64} {
		env.Qualified["MVT::"+name] = v
		env.Globals[name] = v
	}

	// Feature bits: hasFeature(name-token) checks the target's spec.
	features := map[string]bool{
		"HasVariantKind":      t.HasVariantKind,
		"HasHardwareLoop":     t.HasHardwareLoop,
		"HasSIMD":             t.HasSIMD,
		"HasRealtimeISA":      t.HasRealtime,
		"HasDelaySlots":       t.HasDelaySlots,
		"HasCmpFlags":         t.CmpUsesFlags,
		"IsBigEndian":         t.BigEndian,
		"HasDisassembler":     t.HasDisassembler,
		"HasFramePointer":     t.FPIndex >= 0,
		"HasReturnAddressReg": t.RAIndex >= 0,
		"HasVLIWBundles":      t.HasVLIWBundles,
		"HasPredication":      t.HasPredication,
		"HasTensorOps":        t.HasTensorOps,
	}
	for _, e := range t.Extensions {
		features["HasStdExt"+strings.ToUpper(e)] = true
	}
	for name := range features {
		env.Globals[name] = name
	}
	sti := interp.NewObject("STI").On("hasFeature", func(args []any) (any, error) {
		if err := interp.NeedArgs("hasFeature", args, 1); err != nil {
			return nil, err
		}
		name, _ := args[0].(string)
		return features[name], nil
	})
	env.Globals["STI"] = sti

	// Ambient MachineFunction.
	mf := interp.NewObject("MF").
		Const("getOptLevel", optLevel).
		Const("hasFP", true).
		Const("getStackSize", int64(0)).
		Const("hasVarSizedObjects", false)
	env.Globals["MF"] = mf

	// Target symbols: fixups, relocations, registers, instructions,
	// variant kinds.
	for i, f := range t.Fixups() {
		env.Qualified[t.Name+"::"+f.Name] = u.FixupValue(i)
		env.Qualified["ELF::"+f.Reloc] = int64(i + 1)
	}
	env.Qualified["ELF::R_"+strings.ToUpper(t.Name)+"_NONE"] = int64(0)
	for i := 0; i < t.NumRegs; i++ {
		env.Qualified[t.Name+"::"+t.RegEnum(i)] = u.RegValue(i)
	}
	for _, inst := range t.InstSet {
		env.Qualified[t.Name+"::"+inst.Enum] = int64(inst.Opcode)
	}
	if t.HasVariantKind {
		up := strings.ToUpper(t.Name)
		env.Qualified[t.Name+"::VK_"+up+"_None"] = 0
		env.Qualified[t.Name+"::VK_"+up+"_HI"] = 1
		env.Qualified[t.Name+"::VK_"+up+"_LO"] = 2
	}

	// Builtins shared by reference implementations.
	env.Funcs["signExtend"] = func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		bits, _ := asInt(args, 1)
		if bits <= 0 || bits >= 64 {
			return v, nil
		}
		shift := 64 - uint(bits)
		return (v << shift) >> shift, nil
	}
	env.Funcs["parseRegisterIndex"] = func(args []any) (any, error) {
		if err := interp.NeedArgs("parseRegisterIndex", args, 2); err != nil {
			return nil, err
		}
		name, _ := args[0].(string)
		prefix, _ := args[1].(string)
		if !strings.HasPrefix(name, prefix) {
			return int64(-1), nil
		}
		n, err := strconv.Atoi(name[len(prefix):])
		if err != nil || n < 0 {
			return int64(-1), nil
		}
		return int64(n), nil
	}
	env.Funcs["formatRegister"] = func(args []any) (any, error) {
		if err := interp.NeedArgs("formatRegister", args, 1); err != nil {
			return nil, err
		}
		prefix, _ := args[0].(string)
		idx, _ := asInt(args, 1)
		return fmt.Sprintf("%s%d", prefix, idx), nil
	}
	env.Funcs["formatRegisterSym"] = func(args []any) (any, error) {
		if err := interp.NeedArgs("formatRegisterSym", args, 2); err != nil {
			return nil, err
		}
		sym, _ := args[0].(string)
		prefix, _ := args[1].(string)
		idx, _ := asInt(args, 2)
		return fmt.Sprintf("%s%s%d", sym, prefix, idx), nil
	}
	env.Funcs["getBinaryCodeForInstr"] = func(args []any) (any, error) {
		if err := interp.NeedArgs("getBinaryCodeForInstr", args, 1); err != nil {
			return nil, err
		}
		if mi, ok := args[0].(*interp.Object); ok {
			if v, ok := mi.Fields["bits"]; ok {
				return v, nil
			}
		}
		return int64(0), nil
	}

	// Sibling backend functions (the base compiler's correct parts):
	// generated or reference code may call e.g. adjustFixupValue.
	for name, fn := range u.Backend.Funcs {
		name, fn := name, fn
		env.Funcs[name] = func(args []any) (any, error) {
			return interp.Call(fn, caller(), bindArgs(fn, args))
		}
	}
	return env
}

// bindArgs maps positional arguments to a function's parameter names.
func bindArgs(fn *cpp.Node, args []any) map[string]any {
	out := make(map[string]any)
	params := fn.Children[1]
	for i, p := range params.Children {
		if i < len(args) && p.Value != "" {
			out[p.Value] = args[i]
		}
	}
	return out
}

func asInt(args []any, i int) (int64, bool) {
	if i >= len(args) {
		return 0, false
	}
	switch v := args[i].(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// --- stub object builders ---

// FixupObj builds an MCFixup stub with the given kind and offset.
func FixupObj(kind, offset int64) *interp.Object {
	return interp.NewObject("MCFixup").
		Const("getTargetKind", kind).
		Const("getKind", kind).
		Const("getOffset", offset)
}

// ValueTargetObj builds an MCValue stub.
func ValueTargetObj(variant int64, absolute bool) *interp.Object {
	return interp.NewObject("MCValue").
		Const("getAccessVariant", variant).
		Const("isAbsolute", absolute)
}

// OperandObj builds an MCOperand stub.
func OperandObj(isReg bool, reg int64, isImm bool, imm int64, isFI bool) *interp.Object {
	return interp.NewObject("MCOperand").
		Const("isReg", isReg).Const("getReg", reg).
		Const("isImm", isImm).Const("getImm", imm).
		Const("isFI", isFI)
}

// InstObj builds an MCInst/MachineInstr stub whose addReg/addImm/setOpcode
// record effects into the universe.
func (u *Universe) InstObj(opcode int64, flags map[string]bool, operands ...*interp.Object) *interp.Object {
	mi := interp.NewObject("MCInst").
		Const("getOpcode", opcode).
		Const("getNumOperands", int64(len(operands)))
	for _, name := range []string{"mayStore", "mayLoad", "isVector", "isBranch", "isTerminator", "isLabel", "isCall"} {
		mi.Const(name, flags[name])
	}
	mi.On("getOperand", func(args []any) (any, error) {
		i, _ := asInt(args, 0)
		if int(i) < len(operands) {
			return operands[i], nil
		}
		return nil, interp.RuntimeError{Msg: "operand index out of range"}
	})
	mi.On("addReg", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("addReg(%d)", v)
		return nil, nil
	})
	mi.On("addImm", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("addImm(%d)", v)
		return nil, nil
	})
	mi.On("setOpcode", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("setOpcode(%d)", v)
		return nil, nil
	})
	return mi
}

// StreamObj builds a raw_ostream stub recording writes and prints.
func (u *Universe) StreamObj() *interp.Object {
	os := interp.NewObject("raw_ostream")
	os.On("write", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("write(%d)", v)
		return os, nil
	})
	os.On("print", func(args []any) (any, error) {
		if err := interp.NeedArgs("print", args, 1); err != nil {
			return nil, err
		}
		u.Effect("print(%v)", args[0])
		return os, nil
	})
	os.On("printInt", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("printInt(%d)", v)
		return os, nil
	})
	return os
}

// DataObj builds a MutableArrayRef stub recording byte stores.
func (u *Universe) DataObj() *interp.Object {
	d := interp.NewObject("MutableArrayRef")
	d.On("set", func(args []any) (any, error) {
		i, _ := asInt(args, 0)
		v, _ := asInt(args, 1)
		u.Effect("data[%d]=%d", i, v)
		return nil, nil
	})
	return d
}

// RegListObj builds a register-list stub recording push_back.
func (u *Universe) RegListObj() *interp.Object {
	r := interp.NewObject("RegList")
	r.On("push_back", func(args []any) (any, error) {
		v, _ := asInt(args, 0)
		u.Effect("push(%d)", v)
		return nil, nil
	})
	return r
}

// MFObj builds a MachineFunction stub with explicit knobs.
func MFObj(hasFP bool, stackSize int64, varSized bool, optLevel int64) *interp.Object {
	return interp.NewObject("MF").
		Const("hasFP", hasFP).
		Const("getStackSize", stackSize).
		Const("hasVarSizedObjects", varSized).
		Const("getOptLevel", optLevel)
}
