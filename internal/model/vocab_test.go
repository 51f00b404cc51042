package model

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func trainSeqs() [][]string {
	return [][]string{
		{"unsigned", "Kind", "=", "Fixup", ".", "getTargetKind", "(", ")", ";"},
		{"case", "ARM", "::", "fixup_arm_movt_hi16", ":"},
		{"case", "Mips", "::", "fixup_MIPS_HI16", ":"},
		{"return", "ELF", "::", "R_ARM_MOVT_PREL", ";"},
		{"return", "ELF", "::", "R_MIPS_HI16", ";"},
		{"switch", "(", "Kind", ")", "{"},
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := BuildVocabExtra(trainSeqs(), 1, nil, nil)
	for _, seq := range trainSeqs() {
		ids := v.Encode(seq)
		got := v.Decode(ids)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("round trip: %v -> %v", seq, got)
		}
	}
}

func TestVocabUnseenTokenRoundTrip(t *testing.T) {
	v := BuildVocabExtra(trainSeqs(), 1, nil, nil)
	// Never-seen identifier must still round-trip via shared units and
	// character fallback.
	for _, tok := range []string{"fixup_riscv_pcrel_hi20", "R_RISCV_PCREL_HI20", "RISCV", "q7!z"} {
		ids := v.Encode([]string{tok})
		got := v.Decode(ids)
		if len(got) != 1 || got[0] != tok {
			t.Errorf("unseen token %q decoded as %v", tok, got)
		}
	}
}

func TestVocabForceChar(t *testing.T) {
	v := BuildVocabExtra(trainSeqs(), 1, []string{"ARM", "Mips"}, nil)
	ids := v.Encode([]string{"ARM"})
	if len(ids) != 3 { // A, ##R, ##M
		t.Errorf("forceChar ARM encoded as %d pieces, want 3", len(ids))
	}
	if got := v.Decode(ids); got[0] != "ARM" {
		t.Errorf("forceChar round trip = %v", got)
	}
	// The whole piece must not be in the vocabulary.
	if v.Has("ARM") && v.ID("ARM") >= numSpecial+NumConfidenceBuckets {
		// Single chars A..Z are always present; the unit "ARM" itself must
		// not have been added by counting.
		t.Error("forced-char unit leaked into vocab")
	}
}

func TestConfidenceTokens(t *testing.T) {
	v := BuildVocabExtra(nil, 1, nil, nil)
	for _, score := range []float64{0, 0.5, 1} {
		id := v.ConfidenceToken(score)
		got, ok := v.ConfidenceValue(id)
		if !ok {
			t.Fatalf("ConfidenceValue(%d) not a bucket", id)
		}
		if diff := got - score; diff > 0.06 || diff < -0.06 {
			t.Errorf("confidence %f -> token -> %f", score, got)
		}
	}
	if _, ok := v.ConfidenceValue(PAD); ok {
		t.Error("PAD must not be a confidence bucket")
	}
	if v.ConfidenceToken(2.0) != v.ConfidenceToken(1.0) {
		t.Error("scores above 1 must clamp")
	}
	if v.ConfidenceToken(-1) != v.ConfidenceToken(0) {
		t.Error("scores below 0 must clamp")
	}
}

func TestSplitUnits(t *testing.T) {
	cases := map[string][]string{
		"fixup_arm_movt_hi16": {"fixup", "_", "arm", "_", "movt", "_", "hi", "16"},
		"getTargetKind":       {"get", "Target", "Kind"},
		"R_ARM_MOVT_PREL":     {"R", "_", "ARM", "_", "MOVT", "_", "PREL"},
		"IsPCRel":             {"Is", "PC", "Rel"},
		"::":                  {":", ":"},
		"x":                   {"x"},
		"42":                  {"42"},
		`"RISCV"`:             {`"`, "RISCV", `"`},
	}
	for tok, want := range cases {
		if got := splitUnits(tok); !reflect.DeepEqual(got, want) {
			t.Errorf("splitUnits(%q) = %v, want %v", tok, got, want)
		}
	}
}

// splitUnitsRef is splitUnits as it was before it returned substrings:
// the token decoded to []rune and every unit built rune by rune. The
// differential test and fuzz target hold the current function to it.
func splitUnitsRef(tok string) []string {
	var units []string
	var cur strings.Builder
	var curClass int // 0 none, 1 lower, 2 upper, 3 digit
	flush := func() {
		if cur.Len() > 0 {
			units = append(units, cur.String())
			cur.Reset()
		}
		curClass = 0
	}
	rs := []rune(tok)
	for _, r := range rs {
		switch {
		case r >= 'a' && r <= 'z':
			if curClass != 1 && curClass != 2 {
				flush()
			} else if curClass == 2 && cur.Len() > 1 {
				s := cur.String()
				last := s[len(s)-1:]
				cur.Reset()
				cur.WriteString(s[:len(s)-1])
				flush()
				cur.WriteString(last)
			}
			cur.WriteRune(r)
			curClass = 1
		case r >= 'A' && r <= 'Z':
			if curClass != 2 {
				flush()
			}
			cur.WriteRune(r)
			curClass = 2
		case r >= '0' && r <= '9':
			if curClass != 3 {
				flush()
			}
			cur.WriteRune(r)
			curClass = 3
		default:
			flush()
			units = append(units, string(r))
		}
	}
	flush()
	return units
}

// splitUnitsSeeds cover every class transition, the "PCRel" split,
// separators, non-ASCII letters and symbols, and invalid UTF-8 (which
// the reference turns into U+FFFD per bad byte).
var splitUnitsSeeds = []string{
	"", "x", "42", "::", `"RISCV"`, "fixup_arm_movt_hi16", "getTargetKind",
	"R_ARM_MOVT_PREL", "IsPCRel", "PCRel", "ABCdef9GHi", "a1B2c3", "X86_64ISA",
	"é", "naïveX", "αβγ_Δ", "日本Reg", "\xff", "ab\xffCD", "\xe2\x82", "Z\xc3",
}

func sameUnits(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestSplitUnitsMatchesReference(t *testing.T) {
	for _, tok := range splitUnitsSeeds {
		if got, want := splitUnits(tok), splitUnitsRef(tok); !sameUnits(got, want) {
			t.Errorf("splitUnits(%q) = %q, reference %q", tok, got, want)
		}
	}
	f := func(raw []byte) bool { return sameUnits(splitUnits(string(raw)), splitUnitsRef(string(raw))) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func FuzzSplitUnitsAgainstReference(f *testing.F) {
	for _, tok := range splitUnitsSeeds {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if got, want := splitUnits(tok), splitUnitsRef(tok); !sameUnits(got, want) {
			t.Fatalf("splitUnits(%q) = %q, reference %q", tok, got, want)
		}
	})
}

// Property: Encode/Decode round-trips arbitrary printable-ASCII token
// sequences.
func TestVocabRoundTripProperty(t *testing.T) {
	v := BuildVocabExtra(trainSeqs(), 2, nil, nil)
	f := func(raw []uint8) bool {
		var tok []rune
		for _, b := range raw {
			tok = append(tok, rune(33+int(b)%94))
		}
		if len(tok) == 0 {
			return true
		}
		s := string(tok)
		got := v.Decode(v.Encode([]string{s}))
		return len(got) == 1 && got[0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVocabSpecialsStable(t *testing.T) {
	v := BuildVocabExtra(trainSeqs(), 1, nil, nil)
	if v.PieceText(PAD) != "[PAD]" || v.PieceText(SEP) != "[SEP]" || v.PieceText(ABSENT) != "[ABSENT]" {
		t.Error("special token ids shifted")
	}
	if v.ID("[SEP]") != SEP {
		t.Error("SEP lookup broken")
	}
}
