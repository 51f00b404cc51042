package cpp

import (
	"fmt"
	"strings"
)

// Lexer tokenizes C++-subset source text.
type Lexer struct {
	src       string
	off       int
	line, col int
}

// NewLexer returns a lexer over src. Comments are skipped.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, returning the token stream without the
// trailing EOF token.
func Lex(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return toks, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: l.pos(), Msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	for {
		for l.off < len(l.src) && isSpace(l.peek()) {
			l.advance()
		}
		if l.off >= len(l.src) {
			return Token{Kind: TokEOF, Pos: l.pos()}, nil
		}
		// Preprocessor lines are skipped wholesale: backend function bodies
		// in the corpus do not rely on them, but source files may carry
		// includes and guards.
		if l.peek() == '#' && l.col == 1 {
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		if l.peek() == '/' && l.peekAt(1) == '/' {
			l.skipLineComment()
			continue
		}
		if l.peek() == '/' && l.peekAt(1) == '*' {
			if err := l.skipBlockComment(); err != nil {
				return Token{}, err
			}
			continue
		}
		break
	}

	pos := l.pos()
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := Intern(l.src[start:l.off])
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	case isDigit(c):
		return l.lexNumber(pos)
	case c == '"':
		return l.lexString(pos)
	case c == '\'':
		return l.lexChar(pos)
	default:
		return l.lexPunct(pos)
	}
}

func (l *Lexer) skipLineComment() {
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

func (l *Lexer) skipBlockComment() error {
	l.advance() // '/'
	l.advance() // '*'
	for {
		if l.off >= len(l.src) {
			return l.errorf("unterminated block comment")
		}
		if l.peek() == '*' && l.peekAt(1) == '/' {
			l.advance()
			l.advance()
			return nil
		}
		l.advance()
	}
}

func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.off
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else if l.peek() == '0' && (l.peekAt(1) == 'b' || l.peekAt(1) == 'B') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && (l.peek() == '0' || l.peek() == '1') {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' && isDigit(l.peekAt(1)) {
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	// Integer suffixes (u, l, ull, ...).
	for l.off < len(l.src) && strings.ContainsRune("uUlLfF", rune(l.peek())) {
		l.advance()
	}
	return Token{Kind: TokNumber, Text: Intern(l.src[start:l.off]), Pos: pos}, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) lexString(pos Pos) (Token, error) {
	start := l.off
	l.advance() // opening quote
	for {
		if l.off >= len(l.src) {
			return Token{}, l.errorf("unterminated string literal")
		}
		c := l.advance()
		if c == '\\' {
			if l.off >= len(l.src) {
				return Token{}, l.errorf("unterminated escape in string literal")
			}
			l.advance()
			continue
		}
		if c == '"' && l.off > start+1 {
			break
		}
	}
	return Token{Kind: TokString, Text: l.src[start:l.off], Pos: pos}, nil
}

func (l *Lexer) lexChar(pos Pos) (Token, error) {
	start := l.off
	l.advance() // opening quote
	for {
		if l.off >= len(l.src) {
			return Token{}, l.errorf("unterminated char literal")
		}
		c := l.advance()
		if c == '\\' {
			if l.off >= len(l.src) {
				return Token{}, l.errorf("unterminated escape in char literal")
			}
			l.advance()
			continue
		}
		if c == '\'' && l.off > start+1 {
			break
		}
	}
	return Token{Kind: TokChar, Text: l.src[start:l.off], Pos: pos}, nil
}

func (l *Lexer) lexPunct(pos Pos) (Token, error) {
	rest := l.src[l.off:]
	for _, p := range punct3 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	c := l.peek()
	if strings.ContainsRune("+-*/%<>=!&|^~?:;,.(){}[]", rune(c)) {
		l.advance()
		return Token{Kind: TokPunct, Text: Intern(l.src[l.off-1 : l.off]), Pos: pos}, nil
	}
	return Token{}, l.errorf("unexpected character %q", c)
}

// TokenTexts returns just the text of each token; the flat form used by
// feature selection and the model tokenizer.
func TokenTexts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// StatementTokens is the one tokenization rule that templatization,
// evaluation and repair share: a statement's token texts, or, when the
// text does not lex, the whole text as one opaque token so that
// alignment still proceeds.
func StatementTokens(text string) []string {
	toks, err := Lex(text)
	if err != nil {
		return []string{text}
	}
	return TokenTexts(toks)
}
