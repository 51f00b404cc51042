package align

import (
	"encoding/binary"
	"math/bits"
)

// SimCache scores token-sequence similarity for templatization's
// best-of-targets inner loop. Each distinct token gets a dense symbol id
// and each distinct token list a list id, so Sim compares small integer
// sequences: with the shorter list at most 64 tokens long (every
// statement of the corpus is) the exact LCS length comes from the
// bit-parallel recurrence of Allison–Dix and Hyyrö in O(n+m) word
// operations and no allocation. That is cheaper than a map lookup keyed
// by the id pair, so no pair is memoized. Results equal the Dice
// coefficient over the traceback LCS of TokenLCS bit for bit.
//
// A SimCache is not safe for concurrent use; give each alignment its
// own.
type SimCache struct {
	syms  map[string]int32 // token -> symbol id
	ids   map[string]int   // fixed-width symbol-id sequence -> list id
	lists [][]int32        // list id -> symbol ids
	// peq is the kernel's match table, indexed by symbol id: bit i of
	// peq[s] is set while the shorter list has s at position i. It is all
	// zero between Sim calls.
	peq []uint64
	seq []int32 // Intern's scratch symbol ids
	key []byte  // Intern's scratch key
}

// NewSimCache returns an empty cache.
func NewSimCache() *SimCache {
	return &SimCache{syms: make(map[string]int32), ids: make(map[string]int)}
}

// Intern returns the id of a token list, assigning one on first sight.
// Identical lists (element-wise) always share an id and distinct lists
// never do: the key is the list's symbol ids at four bytes each.
func (c *SimCache) Intern(toks []string) int {
	c.seq, c.key = c.seq[:0], c.key[:0]
	for _, t := range toks {
		s, ok := c.syms[t]
		if !ok {
			s = int32(len(c.peq))
			c.syms[t] = s
			c.peq = append(c.peq, 0)
		}
		c.seq = append(c.seq, s)
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(s))
	}
	if id, ok := c.ids[string(c.key)]; ok {
		return id
	}
	id := len(c.lists)
	c.ids[string(c.key)] = id
	c.lists = append(c.lists, append([]int32(nil), c.seq...))
	return id
}

// Sim returns the Dice similarity of the two interned lists,
// 2·|LCS| / (|a|+|b|), or 1 when both are empty.
func (c *SimCache) Sim(a, b int) float64 {
	if a == b {
		return 1
	}
	x, y := c.lists[a], c.lists[b]
	return diceLen(c.lcsLen(x, y), len(x), len(y))
}

// lcsLen is the length of a longest common subsequence of two symbol
// sequences. V holds one bit per position of the shorter sequence; a
// zero bit marks a position where the LCS of the prefixes read so far
// grows, so the length is the count of zeros. Bits above the shorter
// length start at one and stay one: U never has them set, and although
// V+U may carry into them, V−U (= V with U's bits cleared) keeps them.
// That is why 64 − popcount(V) counts only real positions. When both
// sequences exceed one word the exact DP table answers instead.
func (c *SimCache) lcsLen(x, y []int32) int {
	if len(x) > len(y) {
		x, y = y, x
	}
	if len(x) > 64 {
		return int(lcsTable(x, y)[0])
	}
	for i, s := range x {
		c.peq[s] |= 1 << uint(i)
	}
	v := ^uint64(0)
	for _, s := range y {
		u := v & c.peq[s]
		v = (v + u) | (v - u)
	}
	for _, s := range x {
		c.peq[s] = 0
	}
	return 64 - bits.OnesCount64(v)
}
