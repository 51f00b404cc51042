package compiler

import "fmt"

// MKind classifies machine instructions.
type MKind int

// Machine instruction kinds.
const (
	KMovImm    MKind = iota // Dst <- Imm
	KMov                    // Dst <- A
	KAlu                    // Dst <- A op B
	KLoad                   // Dst <- mem[Sym + A] or frame slot Imm
	KStore                  // mem[Sym + A] <- B, or frame slot Imm <- B
	KBr                     // goto Target
	KBrCond                 // if (A op B) goto Target
	KCall                   // call Sym, result in r1
	KRet                    // return r1
	KLoopStart              // hardware loop: body [pc+1, Target), count in A
	KSIMD                   // 4-wide elementwise: dstArr[A+i] = aArr[A+i] op bArr[A+i]
)

// MInst is one machine instruction.
type MInst struct {
	Kind   MKind
	Opcode int    // target opcode (drives the cycle model)
	Op     string // source operator carrying the semantics
	Dst    int
	A, B   int
	Imm    int64
	Sym    string // array or callee name
	Sym2   string // second source array for KSIMD
	SymDst string // destination array for KSIMD
	Target int    // branch target / loop end
}

// MFunc is one compiled function.
type MFunc struct {
	Name       string
	NumParams  int
	Code       []MInst
	FrameSlots int
	SavedRegs  []int // callee-saved registers the prologue preserves
}

// Object is a compiled program.
type Object struct {
	Target string
	Opt    int // 0 or 3
	Funcs  map[string]*MFunc
	Arrays map[string]int
	Init   map[string][]int64
}

// Register conventions (abstract register numbers, independent of the
// target's own numbering; the Tables only drive opcode/cost selection).
const (
	regRet  = 1 // return value and first scratch
	regTmpA = 2
	regTmpB = 3
	regArg0 = 4 // up to 4 arguments
	numArgs = 4
)

// Compile lowers a program at the given optimization level.
func Compile(p *Program, tb *Tables, opt int) (*Object, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	obj := &Object{
		Target: tb.Target, Opt: opt,
		Funcs:  map[string]*MFunc{},
		Arrays: p.Arrays,
		Init:   p.Init,
	}
	for _, f := range p.Funcs {
		mf, err := compileFunc(f, tb, opt)
		if err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", f.Name, err)
		}
		obj.Funcs[f.Name] = mf
	}
	return obj, nil
}

type cg struct {
	tb        *Tables
	opt       int
	out       []MInst
	slots     map[string]int // variable -> frame slot (O0 or spilled)
	regs      map[string]int // variable -> register (O3)
	pool      []int          // registers available for locals
	nextTmp   int
	tmpDepth  int
	usedSaved map[int]bool
}

// Abstract register map: 1 return/scratch, 2-3 scratch, 4-7 arguments,
// 8-15 reserved (vector bounds), 20-43 locals, 44-63 expression temps.
const (
	regVecEnd  = 8
	regLocal0  = 20
	regTemp0   = 44
	maxTmpDeep = 19
)

// tmpPush allocates an expression-temporary register.
func (c *cg) tmpPush() int {
	r := regTemp0 + c.tmpDepth
	c.tmpDepth++
	if c.tmpDepth > maxTmpDeep {
		panic("compiler: expression too deep")
	}
	return r
}

func (c *cg) tmpPop() { c.tmpDepth-- }

func compileFunc(f *Function, tb *Tables, opt int) (*MFunc, error) {
	c := &cg{
		tb: tb, opt: opt,
		slots:     map[string]int{},
		regs:      map[string]int{},
		usedSaved: map[int]bool{},
	}
	if opt >= 3 {
		// Locals live in callee-saved registers; the prologue cost of
		// saving them is paid only for the ones actually used.
		for i := range tb.CalleeSaved {
			if regLocal0+i >= regTemp0 {
				break
			}
			c.pool = append(c.pool, regLocal0+i)
		}
	}
	for i, p := range f.Params {
		if i >= numArgs {
			return nil, fmt.Errorf("too many parameters")
		}
		if reg := -1; opt >= 3 {
			reg = c.allocReg(p)
			if reg >= 0 {
				c.emit(MInst{Kind: KMov, Opcode: tb.ALUOp["+"], Op: "+", Dst: reg, A: regArg0 + i})
				continue
			}
		}
		slot := c.slot(p)
		c.emit(MInst{Kind: KStore, Opcode: tb.StoreOp, Imm: int64(slot), B: regArg0 + i})
	}
	body := f.Body
	if opt >= 3 {
		body = foldStmts(body)
	}
	if err := c.stmts(body); err != nil {
		return nil, err
	}
	// Implicit return 0.
	c.emit(MInst{Kind: KMovImm, Opcode: tb.MoveImm, Dst: regRet, Imm: 0})
	c.emit(MInst{Kind: KRet, Opcode: tb.BrUnc})

	mf := &MFunc{Name: f.Name, NumParams: len(f.Params), Code: c.out, FrameSlots: len(c.slots) + 8}
	if opt >= 3 {
		for r := range c.usedSaved {
			mf.SavedRegs = append(mf.SavedRegs, r)
		}
	} else {
		// -O0 conservatively saves every callee-saved register.
		for i := range tb.CalleeSaved {
			mf.SavedRegs = append(mf.SavedRegs, regLocal0+i)
		}
	}
	return mf, nil
}

func (c *cg) emit(in MInst) int {
	c.out = append(c.out, in)
	return len(c.out) - 1
}

func (c *cg) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.slots)
	c.slots[name] = s
	return s
}

func (c *cg) allocReg(name string) int {
	if r, ok := c.regs[name]; ok {
		return r
	}
	if len(c.pool) == 0 {
		return -1 // spill: register-starved target
	}
	r := c.pool[0]
	c.pool = c.pool[1:]
	c.regs[name] = r
	c.usedSaved[r] = true
	return r
}

// readVar loads a variable into a register and returns it.
func (c *cg) readVar(name string, prefer int) int {
	if c.opt >= 3 {
		if r, ok := c.regs[name]; ok {
			return r
		}
		if r := c.allocReg(name); r >= 0 {
			// First touch: materialize from its slot if it ever spilled.
			if s, ok := c.slots[name]; ok {
				c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: r, Imm: int64(s)})
			}
			return r
		}
	}
	s := c.slot(name)
	c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: prefer, Imm: int64(s)})
	return prefer
}

// writeVar stores a register into a variable.
func (c *cg) writeVar(name string, src int) {
	if c.opt >= 3 {
		if r, ok := c.regs[name]; ok {
			if r != src {
				c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: r, A: src})
			}
			return
		}
		if r := c.allocReg(name); r >= 0 {
			c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: r, A: src})
			return
		}
	}
	s := c.slot(name)
	c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, Imm: int64(s), B: src})
}

// expr evaluates e into register dst. At -O0 each intermediate value
// round-trips through a fresh frame slot, which is the naive-lowering tax.
func (c *cg) expr(e Expr, dst int) error {
	switch ex := e.(type) {
	case Const:
		c.emit(MInst{Kind: KMovImm, Opcode: c.tb.MoveImm, Dst: dst, Imm: ex.Value})
	case Var:
		r := c.readVar(ex.Name, dst)
		if r != dst {
			c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: dst, A: r})
		}
	case Bin:
		// Strength reduction at -O3: multiply by a power of two.
		if c.opt >= 3 {
			if k, ok := powerOfTwo(ex); ok {
				if err := c.expr(ex.L, dst); err != nil {
					return err
				}
				sh := c.tmpPush()
				c.emit(MInst{Kind: KMovImm, Opcode: c.tb.MoveImm, Dst: sh, Imm: k})
				c.emit(MInst{Kind: KAlu, Opcode: c.tb.ALUOp["<<"], Op: "<<", Dst: dst, A: dst, B: sh})
				c.tmpPop()
				return nil
			}
		}
		if err := c.expr(ex.L, dst); err != nil {
			return err
		}
		// Preserve the left value across the right computation: through a
		// frame slot at -O0, through a temp register at -O3.
		if c.opt < 3 {
			slot := c.tempSlot()
			c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, Imm: int64(slot), B: dst})
			if err := c.expr(ex.R, regTmpB); err != nil {
				return err
			}
			c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: regTmpA, Imm: int64(slot)})
			c.emit(MInst{Kind: KAlu, Opcode: c.aluOpcode(ex.Op), Op: ex.Op, Dst: dst, A: regTmpA, B: regTmpB})
			return nil
		}
		save := c.tmpPush()
		c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: save, A: dst})
		rreg := c.tmpPush()
		if err := c.expr(ex.R, rreg); err != nil {
			return err
		}
		c.emit(MInst{Kind: KAlu, Opcode: c.aluOpcode(ex.Op), Op: ex.Op, Dst: dst, A: save, B: rreg})
		c.tmpPop()
		c.tmpPop()
	case Load:
		idxReg := regTmpA
		if c.opt >= 3 {
			idxReg = c.tmpPush()
			defer c.tmpPop()
		}
		if err := c.expr(ex.Index, idxReg); err != nil {
			return err
		}
		c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: dst, A: idxReg, Sym: ex.Array})
	case CallExpr:
		if len(ex.Args) > numArgs {
			return fmt.Errorf("too many call arguments")
		}
		// Arguments evaluate into temporaries first so a nested call in a
		// later argument cannot clobber an earlier one.
		var tmps []int
		for _, a := range ex.Args {
			var t int
			if c.opt >= 3 {
				t = c.tmpPush()
			} else {
				t = c.tempSlot()
			}
			tmps = append(tmps, t)
			if c.opt >= 3 {
				if err := c.expr(a, t); err != nil {
					return err
				}
			} else {
				if err := c.expr(a, regRet); err != nil {
					return err
				}
				c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, Imm: int64(t), B: regRet})
			}
		}
		for i, t := range tmps {
			if c.opt >= 3 {
				c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: regArg0 + i, A: t})
			} else {
				c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: regArg0 + i, Imm: int64(t)})
			}
		}
		if c.opt >= 3 {
			for range tmps {
				c.tmpPop()
			}
		}
		c.emit(MInst{Kind: KCall, Opcode: c.tb.CallOp, Sym: ex.Name})
		if dst != regRet {
			c.emit(MInst{Kind: KMov, Opcode: c.tb.ALUOp["+"], Op: "+", Dst: dst, A: regRet})
		}
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}

func (c *cg) aluOpcode(op string) int {
	if oc, ok := c.tb.ALUOp[op]; ok {
		return oc
	}
	return c.tb.ALUOp["+"]
}

func (c *cg) tempSlot() int {
	c.nextTmp++
	return c.slot(fmt.Sprintf("$t%d", c.nextTmp))
}

func (c *cg) stmts(body []Stmt) error {
	for _, s := range body {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *cg) stmt(s Stmt) error {
	switch st := s.(type) {
	case Assign:
		if err := c.expr(st.E, regRet); err != nil {
			return err
		}
		c.writeVar(st.Name, regRet)
	case Store:
		if c.opt < 3 {
			if err := c.expr(st.Value, regRet); err != nil {
				return err
			}
			slot := c.tempSlot()
			c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, Imm: int64(slot), B: regRet})
			if err := c.expr(st.Index, regTmpA); err != nil {
				return err
			}
			c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: regTmpB, Imm: int64(slot)})
			c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, A: regTmpA, B: regTmpB, Sym: st.Array})
			return nil
		}
		val := c.tmpPush()
		if err := c.expr(st.Value, val); err != nil {
			return err
		}
		idx := c.tmpPush()
		if err := c.expr(st.Index, idx); err != nil {
			return err
		}
		c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, A: idx, B: val, Sym: st.Array})
		c.tmpPop()
		c.tmpPop()
	case If:
		if err := c.condBranch(st.Cond, false); err != nil {
			return err
		}
		jFalse := len(c.out) - 1
		if err := c.stmts(st.Then); err != nil {
			return err
		}
		if len(st.Else) > 0 {
			jEnd := c.emit(MInst{Kind: KBr, Opcode: c.tb.BrUnc})
			c.out[jFalse].Target = len(c.out)
			if err := c.stmts(st.Else); err != nil {
				return err
			}
			c.out[jEnd].Target = len(c.out)
		} else {
			c.out[jFalse].Target = len(c.out)
		}
	case For:
		return c.forLoop(st)
	case While:
		top := len(c.out)
		if err := c.condBranch(st.Cond, false); err != nil {
			return err
		}
		jExit := len(c.out) - 1
		if err := c.stmts(st.Body); err != nil {
			return err
		}
		c.emit(MInst{Kind: KBr, Opcode: c.tb.BrUnc, Target: top})
		c.out[jExit].Target = len(c.out)
	case Return:
		if err := c.expr(st.E, regRet); err != nil {
			return err
		}
		c.emit(MInst{Kind: KRet, Opcode: c.tb.BrUnc})
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
	return nil
}

// condBranch emits a branch taken when the condition equals want==true's
// negation — i.e. it branches AWAY when cond is false.
func (c *cg) condBranch(cond Expr, _ bool) error {
	if b, ok := cond.(Bin); ok && isComparison(b.Op) {
		if c.opt < 3 {
			if err := c.expr(b.L, regTmpA); err != nil {
				return err
			}
			slot := c.tempSlot()
			c.emit(MInst{Kind: KStore, Opcode: c.tb.StoreOp, Imm: int64(slot), B: regTmpA})
			if err := c.expr(b.R, regTmpB); err != nil {
				return err
			}
			c.emit(MInst{Kind: KLoad, Opcode: c.tb.LoadOp, Dst: regTmpA, Imm: int64(slot)})
			c.emit(MInst{Kind: KBrCond, Opcode: c.tb.BrNe, Op: negate(b.Op), A: regTmpA, B: regTmpB})
			return nil
		}
		l := c.tmpPush()
		if err := c.expr(b.L, l); err != nil {
			return err
		}
		r := c.tmpPush()
		if err := c.expr(b.R, r); err != nil {
			return err
		}
		c.emit(MInst{Kind: KBrCond, Opcode: c.tb.BrNe, Op: negate(b.Op), A: l, B: r})
		c.tmpPop()
		c.tmpPop()
		return nil
	}
	if err := c.expr(cond, regTmpA); err != nil {
		return err
	}
	c.emit(MInst{Kind: KMovImm, Opcode: c.tb.MoveImm, Dst: regTmpB, Imm: 0})
	c.emit(MInst{Kind: KBrCond, Opcode: c.tb.BrEq, Op: "==", A: regTmpA, B: regTmpB})
	return nil
}

func isComparison(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func negate(op string) string {
	switch op {
	case "==":
		return "!="
	case "!=":
		return "=="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}
