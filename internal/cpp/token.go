// Package cpp implements a lexer, parser, printer and light semantic
// tooling for the C++ subset used by LLVM-style compiler backend code.
//
// The subset covers what appears inside backend interface functions:
// function definitions, declarations, if/else, switch/case, loops,
// return/break/continue, calls, member access, qualified names
// (Target::fixup_x), casts, and the usual expression operators. It is the
// substrate every later VEGA stage builds on: statement splitting and
// lexing for templatization's token alignment, printing for emitted code,
// normalization and inlining for pre-processing.
package cpp

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokChar
	TokPunct
)

var tokenKindNames = map[TokenKind]string{
	TokEOF:     "EOF",
	TokIdent:   "Ident",
	TokKeyword: "Keyword",
	TokNumber:  "Number",
	TokString:  "String",
	TokChar:    "Char",
	TokPunct:   "Punct",
}

func (k TokenKind) String() string {
	if s, ok := tokenKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError is the error Lex and the Parse functions return for text
// they reject: the position and what went wrong there.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return "cpp: " + e.Pos.String() + ": " + e.Msg }

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%s", t.Kind, t.Text, t.Pos)
}

// Is reports whether the token has the given kind and text.
func (t Token) Is(kind TokenKind, text string) bool {
	return t.Kind == kind && t.Text == text
}

// IsPunct reports whether the token is the given punctuation.
func (t Token) IsPunct(text string) bool { return t.Is(TokPunct, text) }

// IsKeyword reports whether the token is the given keyword.
func (t Token) IsKeyword(text string) bool { return t.Is(TokKeyword, text) }

var keywords = map[string]bool{
	"auto": true, "bool": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "false": true, "float": true,
	"for": true, "goto": true, "if": true, "int": true, "long": true,
	"namespace": true, "new": true, "nullptr": true, "return": true,
	"short": true, "signed": true, "sizeof": true, "static": true,
	"struct": true, "switch": true, "true": true, "typedef": true,
	"unsigned": true, "void": true, "while": true, "class": true,
	"public": true, "private": true, "protected": true, "virtual": true,
	"override": true, "template": true, "typename": true, "using": true,
	"static_cast": true, "const_cast": true, "reinterpret_cast": true,
	"dynamic_cast": true, "delete": true, "this": true, "llvm_unreachable": false,
}

// IsKeywordText reports whether s is a reserved word of the subset.
func IsKeywordText(s string) bool { return keywords[s] }

// multi-character punctuation, longest first within each leading byte.
var punct3 = []string{"<<=", ">>=", "...", "->*"}
var punct2 = []string{
	"::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
}
