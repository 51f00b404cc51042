package align

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Similarity is the dice coefficient of two token sequences based on LCS
// length: 2·|LCS| / (|a|+|b|). Returns 1 for two empty sequences.
func Similarity(a, b []string) float64 {
	return diceLen(int(lcsTable(a, b)[0]), len(a), len(b))
}

// tokensFrom maps fuzz bytes to a token list over a k-symbol alphabet.
func tokensFrom(raw []byte, k int) []string {
	alphabet := []string{"a", "b", "c", "d", "e", "f"}
	out := make([]string, len(raw))
	for i, x := range raw {
		out[i] = alphabet[int(x)%k]
	}
	return out
}

// FuzzSimCacheAgainstTokenLCS pins the bit-parallel kernel (and its DP
// fallback past 64 tokens on both sides) to the traceback LCS: Sim in
// both argument orders, Similarity and 2·len(TokenLCS)/(n+m) must agree
// bit for bit. Lists draw from a 4–6 symbol alphabet so long common
// subsequences are the norm, and lengths run 0…130 to cross the word
// boundary at 63/64/65 on either side.
func FuzzSimCacheAgainstTokenLCS(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lens := []int{0, 1, 2, 31, 63, 64, 65, 100, 130}
	for _, n := range lens {
		for _, m := range lens {
			f.Add(uint8(n+m), randBytes(n), randBytes(m))
		}
	}
	for _, n := range []int{0, 1, 64, 65, 130} {
		b := randBytes(n)
		f.Add(uint8(n), b, b)
	}
	f.Fuzz(func(t *testing.T, alpha uint8, ra, rb []byte) {
		if len(ra) > 130 || len(rb) > 130 {
			t.Skip()
		}
		k := 4 + int(alpha)%3
		a, b := tokensFrom(ra, k), tokensFrom(rb, k)
		c := NewSimCache()
		ia, ib := c.Intern(a), c.Intern(b)
		if same := slices.Equal(a, b); same != (ia == ib) {
			t.Fatalf("equal lists %v, equal ids %v", same, ia == ib)
		}
		want := 1.0
		if len(a)+len(b) > 0 {
			want = 2 * float64(len(TokenLCS(a, b))) / float64(len(a)+len(b))
		}
		for name, got := range map[string]float64{
			"Sim(a,b)":   c.Sim(ia, ib),
			"Sim(b,a)":   c.Sim(ib, ia),
			"Similarity": Similarity(a, b),
		} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s = %v, want %v (n=%d m=%d)", name, got, want, len(a), len(b))
			}
		}
		// The match table must be clean after each call.
		for s, w := range c.peq {
			if w != 0 {
				t.Fatalf("peq[%d] = %#x after Sim", s, w)
			}
		}
	})
}

// A key built by joining tokens on a separator conflates a token that
// contains the separator with two tokens; symbol-id keys cannot.
func TestSimCacheInternDistinguishesJoinedTokens(t *testing.T) {
	c := NewSimCache()
	joined := []string{"a\x00b"}
	split := []string{"a", "b"}
	ij, is := c.Intern(joined), c.Intern(split)
	if ij == is {
		t.Fatalf("%q and %q share id %d", joined, split, ij)
	}
	if got, want := c.Sim(ij, is), Similarity(joined, split); got != want || got != 0 {
		t.Fatalf("Sim = %v, Similarity = %v, want 0", got, want)
	}
	if again := c.Intern([]string{"a", "b"}); again != is {
		t.Fatalf("re-interned %q got id %d, want %d", split, again, is)
	}
}

// Sim allocates nothing: the kernel reuses the cache's match table.
func TestSimCacheSimAllocs(t *testing.T) {
	c := NewSimCache()
	a := c.Intern([]string{"return", "ELF", "::", "R_ARM_NONE", ";"})
	b := c.Intern([]string{"return", "ELF", "::", "R_MIPS_NONE", ";"})
	if n := testing.AllocsPerRun(100, func() { c.Sim(a, b) }); n != 0 {
		t.Fatalf("Sim allocates %v times per call", n)
	}
}
