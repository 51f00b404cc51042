// Package gumtree aligns statements across target-specific
// implementations of the same interface function. VEGA's Stage 1 does this
// with GumTree AST differencing (Falleri et al.); this package stands in
// for it with token-sequence primitives instead: longest common
// subsequence, Dice similarity over LCS length, and dynamic-programming
// statement alignment. GumTree's top-down and bottom-up tree matching is
// not implemented.
package gumtree

import "vega/internal/cpp"

// IndexPair links positions of two sequences.
type IndexPair struct {
	A, B int
}

// TokenLCS returns the index pairs of a longest common subsequence of two
// token sequences.
func TokenLCS(a, b []string) []IndexPair {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	dp, w := lcsTable(a, b), m+1
	var out []IndexPair
	if dp[0] > 0 {
		out = make([]IndexPair, 0, dp[0])
	}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			out = append(out, IndexPair{A: i, B: j})
			i++
			j++
		case dp[(i+1)*w+j] >= dp[i*w+j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// lcsTable fills the suffix LCS table of a and b as one flat
// (len(a)+1)×(len(b)+1) slice: entry i·(len(b)+1)+j is the LCS length of
// a[i:] and b[j:], so entry 0 is the LCS length of the whole sequences.
func lcsTable[T comparable](a, b []T) []int32 {
	n, m := len(a), len(b)
	w := m + 1
	dp := make([]int32, (n+1)*w)
	for i := n - 1; i >= 0; i-- {
		row, next := dp[i*w:(i+1)*w], dp[(i+1)*w:(i+2)*w]
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				row[j] = next[j+1] + 1
			} else if next[j] >= row[j+1] {
				row[j] = next[j]
			} else {
				row[j] = row[j+1]
			}
		}
	}
	return dp
}

// Similarity is the dice coefficient of two token sequences based on LCS
// length: 2·|LCS| / (|a|+|b|). Returns 1 for two empty sequences.
func Similarity(a, b []string) float64 {
	return diceLen(int(lcsTable(a, b)[0]), len(a), len(b))
}

// diceLen is 2·lcs / (n+m), or 1 when both sequences are empty.
func diceLen(lcs, n, m int) float64 {
	if n+m == 0 {
		return 1
	}
	return 2 * float64(lcs) / float64(n+m)
}

// AlignPair pairs statement indexes of two sequences; -1 marks a gap
// (statement present on one side only).
type AlignPair struct {
	A, B int
}

// AlignOptions tunes statement alignment.
type AlignOptions struct {
	// MinSim is the minimum token similarity for two statements to align
	// as a match rather than as an insertion/deletion pair.
	MinSim float64
}

// DefaultAlignOptions mirror the thresholds used throughout VEGA.
func DefaultAlignOptions() AlignOptions { return AlignOptions{MinSim: 0.4} }

// AlignStatements aligns two statement sequences by token similarity using
// Needleman–Wunsch-style dynamic programming: matches score their
// similarity, gaps score zero, and only pairs above MinSim may match.
// The result covers every index of both sequences exactly once.
func AlignStatements(a, b []cpp.Statement, opt AlignOptions) []AlignPair {
	ta := make([][]string, len(a))
	for i, s := range a {
		ta[i] = statementTokens(s)
	}
	tb := make([][]string, len(b))
	for i, s := range b {
		tb[i] = statementTokens(s)
	}
	return alignTokenized(ta, tb, opt)
}

// AlignTokenized aligns pre-tokenized statement lines.
func AlignTokenized(a, b [][]string, opt AlignOptions) []AlignPair {
	return alignTokenized(a, b, opt)
}

func alignTokenized(ta, tb [][]string, opt AlignOptions) []AlignPair {
	c := NewSimCache()
	ia := make([]int, len(ta))
	for i, t := range ta {
		ia[i] = c.Intern(t)
	}
	ib := make([]int, len(tb))
	for j, t := range tb {
		ib[j] = c.Intern(t)
	}
	return AlignFunc(len(ta), len(tb), func(i, j int) float64 {
		return c.Sim(ia[i], ib[j])
	}, opt.MinSim)
}

// AlignFunc aligns two abstract sequences of lengths n and m under an
// arbitrary pairwise similarity function; pairs below minSim never match.
// Every index of both sequences appears exactly once, in order.
func AlignFunc(n, m int, sim func(i, j int) float64, minSim float64) []AlignPair {
	// score[i*w+j] is the best total of aligning a[i:] with b[j:];
	// simv[i*m+j] caches sim(i, j).
	w := m + 1
	score := make([]float64, (n+1)*w)
	simv := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			simv[i*m+j] = sim(i, j)
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			best := score[(i+1)*w+j] // gap in b
			if s := score[i*w+j+1]; s > best {
				best = s // gap in a
			}
			if s := simv[i*m+j]; s >= minSim {
				if v := s + score[(i+1)*w+j+1]; v > best {
					best = v
				}
			}
			score[i*w+j] = best
		}
	}
	var out []AlignPair
	i, j := 0, 0
	for i < n && j < m {
		s := simv[i*m+j]
		switch {
		case s >= minSim && score[i*w+j] == s+score[(i+1)*w+j+1]:
			out = append(out, AlignPair{A: i, B: j})
			i++
			j++
		case score[i*w+j] == score[(i+1)*w+j]:
			out = append(out, AlignPair{A: i, B: -1})
			i++
		default:
			out = append(out, AlignPair{A: -1, B: j})
			j++
		}
	}
	for ; i < n; i++ {
		out = append(out, AlignPair{A: i, B: -1})
	}
	for ; j < m; j++ {
		out = append(out, AlignPair{A: -1, B: j})
	}
	return out
}

// statementTokens lexes a statement's text; unlexable text degrades to a
// single opaque token so alignment still proceeds.
func statementTokens(s cpp.Statement) []string {
	toks, err := cpp.Lex(s.Text)
	if err != nil {
		return []string{s.Text}
	}
	return cpp.TokenTexts(toks)
}

// StatementTokens exposes statement tokenization for other packages.
func StatementTokens(s cpp.Statement) []string { return statementTokens(s) }
