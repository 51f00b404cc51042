package cpp

import (
	"fmt"
	"strings"
)

// Parser builds ASTs from token streams. It is a recursive-descent parser
// with single-point backtracking for the declaration/expression ambiguity.
type Parser struct {
	toks  []Token
	pos   int
	depth int // statements and expressions open on the call stack
}

// maxDepth caps how deeply statements and expressions may nest. The
// parser and every tree walker recurse once per level, so unbounded
// nesting (a megabyte of "(") would overflow the goroutine stack, a
// fatal error no recover catches. Real backend code nests a few dozen
// levels at most.
const maxDepth = 256

// enter opens one nesting level, rejecting input nested past maxDepth;
// the caller defers p.leave.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errorf("nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// NewParser returns a parser over toks.
func NewParser(toks []Token) *Parser { return &Parser{toks: toks} }

// ParseFile parses src as a sequence of function definitions.
func ParseFile(src string) (*Node, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := NewParser(toks)
	file := NewNode(KindFile, "")
	for !p.atEOF() {
		fn, err := p.parseFunction()
		if err != nil {
			return nil, err
		}
		file.Children = append(file.Children, fn)
	}
	return file, nil
}

// ParseFunction parses a single function definition.
func ParseFunction(src string) (*Node, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := NewParser(toks)
	fn, err := p.parseFunction()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing tokens after function definition")
	}
	return fn, nil
}

// ParseStatement parses a single statement (used heavily in tests and by
// the interpreter's harness code).
func ParseStatement(src string) (*Node, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := NewParser(toks)
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing tokens after statement")
	}
	return st, nil
}

// ParseExpr parses a single expression.
func ParseExpr(src string) (*Node, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := NewParser(toks)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing tokens after expression")
	}
	return e, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekN(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.cur()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.cur().Is(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokenKind, text string) error {
	if !p.accept(kind, text) {
		return p.errorf("expected %q, found %q", text, p.cur().Text)
	}
	return nil
}

func (p *Parser) errorf(format string, args ...any) error {
	pos := Pos{}
	if !p.atEOF() {
		pos = p.cur().Pos
	} else if len(p.toks) > 0 {
		pos = p.toks[len(p.toks)-1].Pos
	}
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// --- functions ---

// parseFunction parses "retType Qualified::name(params) [const] { body }".
func (p *Parser) parseFunction() (*Node, error) {
	start := p.cur().Pos
	// Optional leading "static".
	static := p.accept(TokKeyword, "static")
	retType, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	params, err := p.parseParamList()
	if err != nil {
		return nil, err
	}
	p.accept(TokKeyword, "const")
	p.accept(TokKeyword, "override")
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn := NewNode(KindFunction, name, retType, params, body)
	fn.Pos = start
	if static {
		fn.Value = name // staticness is not semantically relevant to VEGA
	}
	return fn, nil
}

func (p *Parser) parseQualifiedName() (string, error) {
	if p.cur().Kind != TokIdent {
		return "", p.errorf("expected identifier, found %q", p.cur().Text)
	}
	name := p.next().Text
	for p.cur().IsPunct("::") {
		p.pos++
		if p.cur().Kind != TokIdent {
			return "", p.errorf("expected identifier after ::, found %q", p.cur().Text)
		}
		name += "::" + p.next().Text
	}
	return name, nil
}

func (p *Parser) parseParamList() (*Node, error) {
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	list := NewNode(KindParamList, "")
	for !p.cur().IsPunct(")") {
		if p.atEOF() {
			return nil, p.errorf("unterminated parameter list")
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name := ""
		if p.cur().Kind == TokIdent {
			name = p.next().Text
		}
		list.Children = append(list.Children, NewNode(KindParam, name, ty))
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	return list, nil
}

// --- statements ---

func (p *Parser) parseBlock() (*Node, error) {
	start := p.cur().Pos
	if err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	blk := NewNode(KindBlock, "")
	blk.Pos = start
	for !p.cur().IsPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		blk.Children = append(blk.Children, st)
	}
	p.pos++ // consume '}'
	return blk, nil
}

func (p *Parser) parseStatement() (*Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	start := p.cur().Pos
	t := p.cur()
	var st *Node
	var err error
	switch {
	case t.IsPunct("{"):
		st, err = p.parseBlock()
	case t.IsPunct(";"):
		p.pos++
		st = NewNode(KindEmpty, "")
	case t.IsKeyword("if"):
		st, err = p.parseIf()
	case t.IsKeyword("switch"):
		st, err = p.parseSwitch()
	case t.IsKeyword("for"):
		st, err = p.parseFor()
	case t.IsKeyword("while"):
		st, err = p.parseWhile()
	case t.IsKeyword("do"):
		st, err = p.parseDoWhile()
	case t.IsKeyword("return"):
		p.pos++
		ret := NewNode(KindReturn, "")
		if !p.cur().IsPunct(";") {
			e, err2 := p.parseExpr()
			if err2 != nil {
				return nil, err2
			}
			ret.Children = append(ret.Children, e)
		}
		if err2 := p.expect(TokPunct, ";"); err2 != nil {
			return nil, err2
		}
		st = ret
	case t.IsKeyword("break"):
		p.pos++
		if err2 := p.expect(TokPunct, ";"); err2 != nil {
			return nil, err2
		}
		st = NewNode(KindBreak, "")
	case t.IsKeyword("continue"):
		p.pos++
		if err2 := p.expect(TokPunct, ";"); err2 != nil {
			return nil, err2
		}
		st = NewNode(KindContinue, "")
	default:
		st, err = p.parseDeclOrExprStmt()
	}
	if err != nil {
		return nil, err
	}
	st.Pos = start
	return st, nil
}

func (p *Parser) parseIf() (*Node, error) {
	p.pos++ // if
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	node := NewNode(KindIf, "", cond, then)
	if p.accept(TokKeyword, "else") {
		els, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, els)
	}
	return node, nil
}

func (p *Parser) parseSwitch() (*Node, error) {
	p.pos++ // switch
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	body := NewNode(KindBlock, "")
	for !p.cur().IsPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated switch body")
		}
		switch {
		case p.cur().IsKeyword("case"):
			cs, err := p.parseCase()
			if err != nil {
				return nil, err
			}
			body.Children = append(body.Children, cs)
		case p.cur().IsKeyword("default"):
			p.pos++
			if err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
			def := NewNode(KindDefault, "")
			if err := p.parseCaseBody(def); err != nil {
				return nil, err
			}
			body.Children = append(body.Children, def)
		default:
			return nil, p.errorf("expected case or default in switch, found %q", p.cur().Text)
		}
	}
	p.pos++ // '}'
	return NewNode(KindSwitch, "", cond, body), nil
}

func (p *Parser) parseCase() (*Node, error) {
	p.pos++ // case
	label, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ":"); err != nil {
		return nil, err
	}
	cs := NewNode(KindCase, "", label)
	if err := p.parseCaseBody(cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// parseCaseBody appends statements to node until the next case/default or
// the closing brace of the switch.
func (p *Parser) parseCaseBody(node *Node) error {
	for {
		t := p.cur()
		if t.IsPunct("}") || t.IsKeyword("case") || t.IsKeyword("default") || p.atEOF() {
			return nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return err
		}
		node.Children = append(node.Children, st)
	}
}

func (p *Parser) parseFor() (*Node, error) {
	p.pos++ // for
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var init *Node
	if p.cur().IsPunct(";") {
		init = NewNode(KindEmpty, "")
		p.pos++
	} else {
		var err error
		init, err = p.parseDeclOrExprStmt()
		if err != nil {
			return nil, err
		}
	}
	var cond *Node
	if p.cur().IsPunct(";") {
		cond = NewNode(KindEmpty, "")
	} else {
		var err error
		cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	var post *Node
	if p.cur().IsPunct(")") {
		post = NewNode(KindEmpty, "")
	} else {
		var err error
		post, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return NewNode(KindFor, "", init, cond, post, body), nil
}

func (p *Parser) parseWhile() (*Node, error) {
	p.pos++ // while
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return NewNode(KindWhile, "", cond, body), nil
}

func (p *Parser) parseDoWhile() (*Node, error) {
	p.pos++ // do
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "while"); err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return NewNode(KindDoWhile, "", body, cond), nil
}

// parseDeclOrExprStmt disambiguates declarations from expression statements
// by attempting a declaration parse and backtracking on failure.
func (p *Parser) parseDeclOrExprStmt() (*Node, error) {
	save := p.pos
	if decl, ok := p.tryParseDecl(); ok {
		return decl, nil
	}
	p.pos = save
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return NewNode(KindExprStmt, "", e), nil
}

// tryParseDecl attempts "type declarator [= init] [, declarator...] ;".
func (p *Parser) tryParseDecl() (*Node, bool) {
	ty, err := p.parseType()
	if err != nil {
		return nil, false
	}
	// Declarator must be a plain identifier here; the type already consumed
	// any pointer/reference sigils.
	if p.cur().Kind != TokIdent {
		return nil, false
	}
	// Lookahead: after the identifier we must see '=', ';', ',' or '(' to
	// call it a declaration.
	after := p.peekN(1)
	if !(after.IsPunct("=") || after.IsPunct(";") || after.IsPunct(",") || after.IsPunct("(")) {
		return nil, false
	}
	decl := NewNode(KindDecl, "", ty)
	for {
		if p.cur().Kind != TokIdent {
			return nil, false
		}
		name := NewNode(KindIdent, p.next().Text)
		switch {
		case p.accept(TokPunct, "="):
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, false
			}
			decl.Children = append(decl.Children, NewNode(KindAssign, "=", name, init))
		case p.cur().IsPunct("("):
			// Constructor-style initialization: T x(a, b);
			p.pos++
			call := NewNode(KindCall, "", name.Clone())
			for !p.cur().IsPunct(")") {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, false
				}
				call.Children = append(call.Children, arg)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if !p.accept(TokPunct, ")") {
				return nil, false
			}
			decl.Children = append(decl.Children, NewNode(KindAssign, "()", name, call))
		default:
			decl.Children = append(decl.Children, name)
		}
		if p.accept(TokPunct, ",") {
			continue
		}
		break
	}
	if !p.accept(TokPunct, ";") {
		return nil, false
	}
	return decl, true
}

var typeKeywords = map[string]bool{
	"void": true, "bool": true, "char": true, "short": true, "int": true,
	"long": true, "float": true, "double": true, "signed": true,
	"unsigned": true, "auto": true,
}

// parseType parses "[const|static]* base [<args>] [*&]* [const]" and
// returns a KindType node whose Value is the canonical rendering.
func (p *Parser) parseType() (*Node, error) {
	var parts []string
	for p.cur().IsKeyword("const") || p.cur().IsKeyword("static") {
		parts = append(parts, p.next().Text)
	}
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && typeKeywords[t.Text]:
		parts = append(parts, p.next().Text)
		// Multi-word fundamental types: unsigned int, long long, ...
		for p.cur().Kind == TokKeyword && typeKeywords[p.cur().Text] {
			parts = append(parts, p.next().Text)
		}
	case t.Kind == TokIdent:
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		// Template arguments, e.g. SmallVector<int, 4>.
		if p.cur().IsPunct("<") && p.looksLikeTemplateArgs() {
			args, err := p.parseTemplateArgs()
			if err != nil {
				return nil, err
			}
			name += args
		}
		parts = append(parts, name)
	default:
		return nil, p.errorf("expected type, found %q", t.Text)
	}
	for {
		c := p.cur()
		if c.IsPunct("*") || c.IsPunct("&") {
			parts = append(parts, p.next().Text)
			continue
		}
		if c.IsKeyword("const") {
			parts = append(parts, p.next().Text)
			continue
		}
		break
	}
	return NewNode(KindType, canonicalType(parts)), nil
}

// looksLikeTemplateArgs distinguishes "Foo<int>" from "Kind < 4".
// Heuristic: scan ahead for a matching '>' before any ';', '{', '}', '&&',
// '||' or assignment; require the contents to start with a plausible type.
func (p *Parser) looksLikeTemplateArgs() bool {
	inner := p.peekN(1)
	if !(inner.Kind == TokIdent || (inner.Kind == TokKeyword && typeKeywords[inner.Text]) || inner.Kind == TokNumber) {
		return false
	}
	depth := 0
	for i := 0; p.pos+i < len(p.toks) && i < 32; i++ {
		t := p.peekN(i)
		switch {
		case t.IsPunct("<"):
			depth++
		case t.IsPunct(">"):
			depth--
			if depth == 0 {
				return true
			}
		case t.IsPunct(";"), t.IsPunct("{"), t.IsPunct("}"),
			t.IsPunct("&&"), t.IsPunct("||"), t.IsPunct("="):
			return false
		}
	}
	return false
}

func (p *Parser) parseTemplateArgs() (string, error) {
	if err := p.expect(TokPunct, "<"); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("<")
	depth := 1
	for depth > 0 {
		if p.atEOF() {
			return "", p.errorf("unterminated template argument list")
		}
		t := p.next()
		switch {
		case t.IsPunct("<"):
			depth++
		case t.IsPunct(">"):
			depth--
			if depth == 0 {
				b.WriteString(">")
				return b.String(), nil
			}
		}
		if b.Len() > 1 && t.Kind != TokPunct {
			prev := b.String()
			if !strings.HasSuffix(prev, "<") && !strings.HasSuffix(prev, " ") {
				b.WriteString(" ")
			}
		}
		b.WriteString(t.Text)
	}
	return b.String(), nil
}

// canonicalType joins type parts: words separated by spaces, sigils
// attached ("const MCExpr *" -> "const MCExpr *").
func canonicalType(parts []string) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(p)
	}
	return b.String()
}

// --- expressions (precedence climbing) ---

var binaryPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseExpr() (*Node, error) { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() (*Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind == TokPunct && assignOps[t.Text] {
		op := p.next().Text
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return NewNode(KindAssign, op, lhs, rhs), nil
	}
	return lhs, nil
}

func (p *Parser) parseTernary() (*Node, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.accept(TokPunct, "?") {
		then, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		els, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return NewNode(KindTernary, "", cond, then, els), nil
	}
	return cond, nil
}

func (p *Parser) parseBinary(minPrec int) (*Node, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = NewNode(KindBinary, op, lhs, rhs)
	}
}

func (p *Parser) parseUnary() (*Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "~", "-", "+", "*", "&", "++", "--":
			op := p.next().Text
			operand, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return NewNode(KindUnary, op, operand), nil
		}
	}
	if t.IsKeyword("sizeof") {
		p.pos++
		if err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return NewNode(KindUnary, "sizeof", inner), nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (*Node, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.IsPunct("("):
			p.pos++
			call := NewNode(KindCall, "", e)
			for !p.cur().IsPunct(")") {
				if p.atEOF() {
					return nil, p.errorf("unterminated argument list")
				}
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Children = append(call.Children, arg)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			e = call
		case t.IsPunct("["):
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			e = NewNode(KindIndex, "", e, idx)
		case t.IsPunct(".") || t.IsPunct("->"):
			op := p.next().Text
			if p.cur().Kind != TokIdent {
				return nil, p.errorf("expected member name after %q", op)
			}
			name := NewNode(KindIdent, p.next().Text)
			e = NewNode(KindMember, op, e, name)
		case t.IsPunct("++") || t.IsPunct("--"):
			op := p.next().Text
			e = NewNode(KindPostfix, op, e)
		default:
			return e, nil
		}
	}
}

var castKeywords = map[string]bool{
	"static_cast": true, "const_cast": true,
	"reinterpret_cast": true, "dynamic_cast": true,
}

func (p *Parser) parsePrimary() (*Node, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		return NewNode(KindNumber, t.Text), nil
	case t.Kind == TokString:
		p.pos++
		return NewNode(KindString, t.Text), nil
	case t.Kind == TokChar:
		p.pos++
		return NewNode(KindChar, t.Text), nil
	case t.IsKeyword("true") || t.IsKeyword("false") || t.IsKeyword("nullptr") || t.IsKeyword("this"):
		p.pos++
		return NewNode(KindIdent, t.Text), nil
	case t.Kind == TokKeyword && castKeywords[t.Text]:
		kw := p.next().Text
		if err := p.expect(TokPunct, "<"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ">"); err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return NewNode(KindCast, kw, ty, inner), nil
	case t.Kind == TokKeyword && typeKeywords[t.Text]:
		// Functional cast: unsigned(x), int(y).
		kw := p.next().Text
		if err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return NewNode(KindCast, "", NewNode(KindType, kw), inner), nil
	case t.IsPunct("("):
		// C-style cast "(unsigned)x" is recognized only for fundamental
		// keyword types to avoid ambiguity with parenthesized expressions.
		if inner := p.peekN(1); inner.Kind == TokKeyword && typeKeywords[inner.Text] {
			save := p.pos
			p.pos++
			ty, err := p.parseType()
			if err == nil && p.accept(TokPunct, ")") {
				operand, err2 := p.parseUnary()
				if err2 == nil {
					return NewNode(KindCast, "", ty, operand), nil
				}
			}
			p.pos = save
		}
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		if strings.Contains(name, "::") {
			q := NewNode(KindQualified, name)
			for _, part := range strings.Split(name, "::") {
				q.Children = append(q.Children, NewNode(KindIdent, part))
			}
			// Qualified leaves keep children for Idents() but count as one
			// unit for matching; collapse children into the label only.
			q.Children = nil
			return q, nil
		}
		return NewNode(KindIdent, name), nil
	case t.IsPunct("{"):
		// Brace initializer list.
		p.pos++
		init := NewNode(KindInit, "")
		for !p.cur().IsPunct("}") {
			if p.atEOF() {
				return nil, p.errorf("unterminated initializer list")
			}
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			init.Children = append(init.Children, e)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return init, nil
	default:
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	}
}
