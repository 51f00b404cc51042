// Package tablegen implements a miniature TableGen: a parser and record
// model for the target-description subset LLVM-style backends carry in
// .td files, plus parsers for the enum declarations in .h headers and the
// X-macro lines in .def files.
//
// VEGA's feature selection (Algorithm 1 in the paper) only ever asks four
// questions of these files — does a token occur, which enum contains a
// member, what are an enum's members, and which "key = \"value\""
// assignments exist — so the package also provides a SourceTree with
// exactly those search operations over a virtual directory layout
// (LLVMDIRs and TGTDIRs).
package tablegen

import (
	"fmt"
	"strings"

	"vega/internal/cpp"
)

// Record is a TableGen class or def.
type Record struct {
	Kind    string // "class" or "def"
	Name    string
	Parents []string
	Fields  []Field
}

// Field is one "name = value;" binding inside a record body.
type Field struct {
	Name     string
	Value    string // unquoted for strings, raw text otherwise
	IsString bool
}

// Lookup returns the named field and whether it exists.
func (r *Record) Lookup(name string) (Field, bool) {
	for _, f := range r.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// TDFile is a parsed .td file.
type TDFile struct {
	Records []Record
	// TopAssigns are file-scope "key = value" assignments; the corpus uses
	// them for loose properties such as OperandType = "OPERAND_PCREL".
	TopAssigns []Field
}

// Def returns the def with the given name.
func (f *TDFile) Def(name string) (*Record, bool) {
	for i := range f.Records {
		if f.Records[i].Kind == "def" && f.Records[i].Name == name {
			return &f.Records[i], true
		}
	}
	return nil, false
}

// ParseTD parses TableGen source.
func ParseTD(src string) (*TDFile, error) {
	toks, err := cpp.Lex(src)
	if err != nil {
		return nil, fmt.Errorf("tablegen: %w", err)
	}
	p := &tdParser{toks: toks}
	return p.parseFile()
}

type tdParser struct {
	toks []cpp.Token
	pos  int
}

func (p *tdParser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *tdParser) cur() cpp.Token {
	if p.atEOF() {
		return cpp.Token{Kind: cpp.TokEOF}
	}
	return p.toks[p.pos]
}

func (p *tdParser) next() cpp.Token {
	t := p.cur()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *tdParser) accept(kind cpp.TokenKind, text string) bool {
	if p.cur().Is(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *tdParser) expect(text string) error {
	t := p.cur()
	if t.Text != text {
		return fmt.Errorf("tablegen: %s: expected %q, found %q", t.Pos, text, t.Text)
	}
	p.pos++
	return nil
}

func (p *tdParser) parseFile() (*TDFile, error) {
	f := &TDFile{}
	for !p.atEOF() {
		t := p.cur()
		switch {
		case t.Text == "class" || t.Text == "def":
			rec, err := p.parseRecord(t.Text)
			if err != nil {
				return nil, err
			}
			f.Records = append(f.Records, rec)
		case t.Text == "let":
			// File-scope "let X = V in { ... }" or "let X = V;"
			p.pos++
			field, err := p.parseFieldAssign()
			if err != nil {
				return nil, err
			}
			f.TopAssigns = append(f.TopAssigns, field)
			if p.accept(cpp.TokIdent, "in") {
				// Skip the braced group wholesale but collect its records.
				if p.cur().IsPunct("{") {
					if err := p.skipBalanced("{", "}"); err != nil {
						return nil, err
					}
				}
			}
		case t.Kind == cpp.TokIdent:
			// Bare file-scope assignment "Name = "RISCV"" used by the
			// corpus's simplified top-level description lines.
			field, err := p.parseFieldAssign()
			if err != nil {
				return nil, err
			}
			f.TopAssigns = append(f.TopAssigns, field)
		case t.Text == "include":
			p.pos++
			p.next() // the path string
		default:
			return nil, fmt.Errorf("tablegen: %s: unexpected token %q", t.Pos, t.Text)
		}
	}
	return f, nil
}

// parseFieldAssign parses `name = value [;]` where value extends to the
// next ';', 'in', or end of line-ish boundary.
func (p *tdParser) parseFieldAssign() (Field, error) {
	t := p.cur()
	if t.Kind != cpp.TokIdent {
		return Field{}, fmt.Errorf("tablegen: %s: expected field name, found %q", t.Pos, t.Text)
	}
	name := p.next().Text
	if err := p.expect("="); err != nil {
		return Field{}, err
	}
	return p.parseFieldValue(name)
}

func (p *tdParser) parseFieldValue(name string) (Field, error) {
	t := p.cur()
	if t.Kind == cpp.TokString {
		p.pos++
		p.accept(cpp.TokPunct, ";")
		return Field{Name: name, Value: unquote(t.Text), IsString: true}, nil
	}
	var parts []string
	for !p.atEOF() {
		t = p.cur()
		if t.IsPunct(";") {
			p.pos++
			break
		}
		if t.Text == "in" || t.IsPunct("}") || t.Text == "let" ||
			t.Text == "def" || t.Text == "class" {
			break
		}
		parts = append(parts, p.next().Text)
	}
	return Field{Name: name, Value: strings.Join(parts, " ")}, nil
}

func (p *tdParser) parseRecord(kind string) (Record, error) {
	p.pos++ // class/def
	rec := Record{Kind: kind}
	if p.cur().Kind == cpp.TokIdent {
		rec.Name = p.next().Text
	}
	// Template parameter list on classes: class Foo<bits<7> op, string n>.
	if p.cur().IsPunct("<") {
		if err := p.skipBalanced("<", ">"); err != nil {
			return rec, err
		}
	}
	if p.accept(cpp.TokPunct, ":") {
		for {
			t := p.cur()
			if t.Kind != cpp.TokIdent {
				return rec, fmt.Errorf("tablegen: %s: expected parent class, found %q", t.Pos, t.Text)
			}
			rec.Parents = append(rec.Parents, p.next().Text)
			// Parent template args: Proc<"generic", [...]>.
			if p.cur().IsPunct("<") {
				if err := p.skipBalanced("<", ">"); err != nil {
					return rec, err
				}
			}
			if !p.accept(cpp.TokPunct, ",") {
				break
			}
		}
	}
	if p.accept(cpp.TokPunct, ";") {
		return rec, nil
	}
	if err := p.expect("{"); err != nil {
		return rec, err
	}
	for !p.cur().IsPunct("}") {
		if p.atEOF() {
			return rec, fmt.Errorf("tablegen: unterminated record body for %s", rec.Name)
		}
		t := p.cur()
		switch {
		case t.Text == "let":
			p.pos++
			f, err := p.parseFieldAssign()
			if err != nil {
				return rec, err
			}
			rec.Fields = append(rec.Fields, f)
		case t.Kind == cpp.TokIdent || t.Kind == cpp.TokKeyword:
			// Typed field decl: "string Name = ...;" or "bits<7> Opcode = ...;"
			f, err := p.parseTypedField()
			if err != nil {
				return rec, err
			}
			rec.Fields = append(rec.Fields, f)
		default:
			return rec, fmt.Errorf("tablegen: %s: unexpected token %q in record body", t.Pos, t.Text)
		}
	}
	p.pos++ // '}'
	return rec, nil
}

// parseTypedField parses "type name = value;" or "name = value;".
func (p *tdParser) parseTypedField() (Field, error) {
	first := p.next()
	// Possible bits<N> suffix on the type.
	if p.cur().IsPunct("<") {
		if err := p.skipBalanced("<", ">"); err != nil {
			return Field{}, err
		}
	}
	if p.cur().Is(cpp.TokPunct, "=") {
		// "name = value" — first was the field name.
		p.pos++
		return p.parseFieldValue(first.Text)
	}
	// "type name [= value];"
	t := p.cur()
	if t.Kind != cpp.TokIdent {
		return Field{}, fmt.Errorf("tablegen: %s: expected field name after type %q", t.Pos, first.Text)
	}
	name := p.next().Text
	if p.accept(cpp.TokPunct, "=") {
		return p.parseFieldValue(name)
	}
	p.accept(cpp.TokPunct, ";")
	return Field{Name: name}, nil
}

func (p *tdParser) skipBalanced(open, close string) error {
	if err := p.expect(open); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.atEOF() {
			return fmt.Errorf("tablegen: unbalanced %q", open)
		}
		t := p.next()
		switch t.Text {
		case open:
			depth++
		case close:
			depth--
		}
	}
	return nil
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
