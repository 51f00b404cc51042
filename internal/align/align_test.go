package align

import (
	"testing"
	"testing/quick"

	"vega/internal/cpp"
)

// statementsOf parses a function and splits it into statements.
func statementsOf(t *testing.T, src string) []cpp.Statement {
	t.Helper()
	fn, err := cpp.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return cpp.SplitFunction(fn)
}

// tokenized applies the shared statement tokenization rule.
func tokenized(sts []cpp.Statement) [][]string {
	out := make([][]string, len(sts))
	for i, s := range sts {
		out[i] = cpp.StatementTokens(s.Text)
	}
	return out
}

// templateMinSim is the threshold templatization aligns with.
const templateMinSim = 0.4

const armReloc = `unsigned ARMELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (K) {
    case ARM::fixup_arm_movt_hi16:
      return ELF::R_ARM_MOVT_PREL;
    default:
      return ELF::R_ARM_NONE;
    }
  }
  return ELF::R_ARM_ABS32;
}`

const mipsReloc = `unsigned MipsELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (K) {
    case Mips::fixup_MIPS_HI16:
      return ELF::R_MIPS_HI16;
    default:
      return ELF::R_MIPS_NONE;
    }
  }
  return ELF::R_MIPS_32;
}`

func TestTokenLCS(t *testing.T) {
	a := []string{"case", "ARM", "::", "fixup_arm_movt_hi16", ":"}
	b := []string{"case", "Mips", "::", "fixup_MIPS_HI16", ":"}
	lcs := TokenLCS(a, b)
	if len(lcs) != 3 { // case, ::, :
		t.Errorf("LCS = %v, want 3 pairs", lcs)
	}
	if lcs[0] != (IndexPair{0, 0}) {
		t.Errorf("first pair = %v", lcs[0])
	}
}

func TestTokenLCSEmpty(t *testing.T) {
	if got := TokenLCS(nil, []string{"a"}); got != nil {
		t.Errorf("LCS with empty = %v", got)
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity([]string{"a", "b"}, []string{"a", "b"}); s != 1 {
		t.Errorf("identical similarity = %f", s)
	}
	if s := Similarity([]string{"a"}, []string{"b"}); s != 0 {
		t.Errorf("disjoint similarity = %f", s)
	}
	if s := Similarity(nil, nil); s != 1 {
		t.Errorf("empty similarity = %f", s)
	}
	s := Similarity([]string{"return", "x", ";"}, []string{"return", "y", ";"})
	if s <= 0.5 || s >= 1 {
		t.Errorf("partial similarity = %f", s)
	}
}

// Property: LCS indexes are strictly increasing in both coordinates and
// every paired element is equal.
func TestTokenLCSProperty(t *testing.T) {
	alphabet := []string{"a", "b", "c", "d"}
	f := func(xs, ys []uint8) bool {
		a := make([]string, len(xs))
		for i, x := range xs {
			a[i] = alphabet[int(x)%len(alphabet)]
		}
		b := make([]string, len(ys))
		for i, y := range ys {
			b[i] = alphabet[int(y)%len(alphabet)]
		}
		lcs := TokenLCS(a, b)
		prevA, prevB := -1, -1
		for _, p := range lcs {
			if p.A <= prevA || p.B <= prevB {
				return false
			}
			if a[p.A] != b[p.B] {
				return false
			}
			prevA, prevB = p.A, p.B
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlignStatements(t *testing.T) {
	sa := statementsOf(t, armReloc)
	sb := statementsOf(t, mipsReloc)
	pairs := AlignTokenized(tokenized(sa), tokenized(sb), templateMinSim)
	// Same shape: everything should align 1:1, no gaps.
	for _, p := range pairs {
		if p.A == -1 || p.B == -1 {
			t.Errorf("unexpected gap at %v", p)
		}
	}
	if len(pairs) != len(sa) {
		t.Errorf("pairs = %d, want %d", len(pairs), len(sa))
	}
}

func TestAlignStatementsWithGap(t *testing.T) {
	sa := statementsOf(t, `unsigned f(unsigned K) {
  unsigned Kind = Fixup.getTargetKind();
  MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();
  return Kind;
}`)
	sb := statementsOf(t, `unsigned f(unsigned K) {
  unsigned Kind = Fixup.getTargetKind();
  return Kind;
}`)
	pairs := AlignTokenized(tokenized(sa), tokenized(sb), templateMinSim)
	var gaps int
	for _, p := range pairs {
		if p.B == -1 {
			gaps++
			if sa[p.A].Text[:2] != "MC" {
				t.Errorf("wrong statement gapped: %q", sa[p.A].Text)
			}
		}
	}
	if gaps != 1 {
		t.Errorf("gaps = %d, want 1", gaps)
	}
}

// Property: alignment covers all indexes of both sequences exactly once,
// in order.
func TestAlignCoverageProperty(t *testing.T) {
	lines := [][]string{
		{"return", "0", ";"},
		{"x", "=", "y", ";"},
		{"if", "(", "a", ")", "{"},
		{"}"},
		{"switch", "(", "k", ")", "{"},
	}
	f := func(xs, ys []uint8) bool {
		a := make([][]string, len(xs))
		for i, x := range xs {
			a[i] = lines[int(x)%len(lines)]
		}
		b := make([][]string, len(ys))
		for i, y := range ys {
			b[i] = lines[int(y)%len(lines)]
		}
		pairs := AlignTokenized(a, b, templateMinSim)
		nextA, nextB := 0, 0
		for _, p := range pairs {
			if p.A != -1 {
				if p.A != nextA {
					return false
				}
				nextA++
			}
			if p.B != -1 {
				if p.B != nextB {
					return false
				}
				nextB++
			}
		}
		return nextA == len(a) && nextB == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlignPrefersSimilarPairs(t *testing.T) {
	a := [][]string{{"case", "A", "::", "x", ":"}, {"return", "1", ";"}}
	b := [][]string{{"case", "B", "::", "y", ":"}, {"return", "2", ";"}}
	pairs := AlignTokenized(a, b, templateMinSim)
	if len(pairs) != 2 || pairs[0] != (AlignPair{0, 0}) || pairs[1] != (AlignPair{1, 1}) {
		t.Errorf("pairs = %v", pairs)
	}
}
