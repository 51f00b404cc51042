package cpp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasicTokens(t *testing.T) {
	toks, err := Lex(`unsigned Kind = Fixup.getTargetKind();`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"unsigned", "Kind", "=", "Fixup", ".", "getTargetKind", "(", ")", ";"}
	if got := TokenTexts(toks); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if toks[0].Kind != TokKeyword {
		t.Errorf("unsigned should be a keyword, got %v", toks[0].Kind)
	}
	if toks[1].Kind != TokIdent {
		t.Errorf("Kind should be an identifier, got %v", toks[1].Kind)
	}
}

// TestStatementTokens covers both branches of the shared tokenization
// rule: text that lexes, text that does not (Lex stops partway and
// returns what it read so far, which the rule must not keep), and the
// empty statement.
func TestStatementTokens(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"return ELF::R_ARM_NONE;", []string{"return", "ELF", "::", "R_ARM_NONE", ";"}},
		{`Name = "unterminated;`, []string{`Name = "unterminated;`}},
		{"case 'x:", []string{"case 'x:"}},
		{"x = 1; /* open", []string{"x = 1; /* open"}},
		{"", []string{}},
	} {
		if got := StatementTokens(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("StatementTokens(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLexQualifiedName(t *testing.T) {
	toks := mustLex(t, `case ARM::fixup_arm_movt_hi16:`)
	want := []string{"case", "ARM", "::", "fixup_arm_movt_hi16", ":"}
	if got := TokenTexts(toks); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLexMultiCharPunct(t *testing.T) {
	cases := map[string][]string{
		"a->b":     {"a", "->", "b"},
		"a<<=2":    {"a", "<<=", "2"},
		"a<<2":     {"a", "<<", "2"},
		"x::y":     {"x", "::", "y"},
		"a!=b":     {"a", "!=", "b"},
		"a&&b||c":  {"a", "&&", "b", "||", "c"},
		"i++ +--j": {"i", "++", "+", "--", "j"},
		"a<=b>=c":  {"a", "<=", "b", ">=", "c"},
	}
	for src, want := range cases {
		if got := TokenTexts(mustLex(t, src)); !reflect.DeepEqual(got, want) {
			t.Errorf("Lex(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"0x1F":  "0x1F",
		"42":    "42",
		"3.5":   "3.5",
		"7u":    "7u",
		"0xffL": "0xffL",
	}
	for src, want := range cases {
		toks := mustLex(t, src)
		if len(toks) != 1 || toks[0].Kind != TokNumber || toks[0].Text != want {
			t.Errorf("Lex(%q) = %v, want single number %q", src, toks, want)
		}
	}
}

func TestLexStringAndChar(t *testing.T) {
	toks := mustLex(t, `Name == "RISCV" && c == 'x'`)
	if toks[2].Kind != TokString || toks[2].Text != `"RISCV"` {
		t.Errorf("string literal = %v", toks[2])
	}
	if toks[6].Kind != TokChar || toks[6].Text != `'x'` {
		t.Errorf("char literal = %v", toks[6])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks := mustLex(t, `"a\"b" 'b'`)
	if toks[0].Text != `"a\"b"` {
		t.Errorf("escaped string = %q", toks[0].Text)
	}
}

func TestLexSkipsComments(t *testing.T) {
	src := "a; // line comment\n/* block\ncomment */ b;"
	want := []string{"a", ";", "b", ";"}
	if got := TokenTexts(mustLex(t, src)); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLexSkipsPreprocessor(t *testing.T) {
	src := "#include \"x.h\"\nint a;"
	want := []string{"int", "a", ";"}
	if got := TokenTexts(mustLex(t, src)); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLexPositions(t *testing.T) {
	toks := mustLex(t, "a\n  b")
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `'u`, "/* open", "`"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

// Property: lexing the joined token texts of any lexable identifier/number
// mix reproduces the same token stream (idempotence of lex∘join).
func TestLexRoundTripProperty(t *testing.T) {
	alphabet := []string{"foo", "Bar_9", "42", "0x1F", "+", "-", "==", "::", "(", ")", ";", `"s"`}
	f := func(picks []uint8) bool {
		var parts []string
		for _, p := range picks {
			parts = append(parts, alphabet[int(p)%len(alphabet)])
		}
		src := strings.Join(parts, " ")
		toks, err := Lex(src)
		if err != nil {
			return false
		}
		got := TokenTexts(toks)
		if len(got) != len(parts) {
			return false
		}
		for i := range got {
			if got[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mustLex replaces the removed MustLex API: lexer errors now flow
// through Lex's error return instead of a panic.
func mustLex(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks
}
