package model

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// Special token ids, fixed at the head of every vocabulary.
const (
	PAD = iota
	UNK
	BOS
	EOS
	SEP
	CLS
	E2D
	ABSENT
	numSpecial
)

var specialNames = []string{"[PAD]", "[UNK]", "[BOS]", "[EOS]", "[SEP]", "[CLS]", "[E2D]", "[ABSENT]"}

// NumConfidenceBuckets is the number of discrete confidence tokens
// ([CS00] … [CS10]) the decoder can emit before a statement.
const NumConfidenceBuckets = 11

// Vocab is a WordPiece-style subword vocabulary: frequent units are whole
// pieces; everything else decomposes into single characters, so any
// identifier from an unseen target's description files remains encodable.
// Continuation pieces carry a "##" prefix so decoded pieces reassemble
// into exact source tokens.
type Vocab struct {
	idx       map[string]int
	toks      []string
	forceChar map[string]bool
}

// ConfidenceToken returns the id of the bucket token for a score in [0,1].
func (v *Vocab) ConfidenceToken(score float64) int {
	b := int(score*float64(NumConfidenceBuckets-1) + 0.5)
	if b < 0 {
		b = 0
	}
	if b >= NumConfidenceBuckets {
		b = NumConfidenceBuckets - 1
	}
	return numSpecial + b
}

// ConfidenceValue inverts ConfidenceToken; ok is false for non-bucket ids.
func (v *Vocab) ConfidenceValue(id int) (float64, bool) {
	if id < numSpecial || id >= numSpecial+NumConfidenceBuckets {
		return 0, false
	}
	return float64(id-numSpecial) / float64(NumConfidenceBuckets-1), true
}

// Size returns the vocabulary size.
func (v *Vocab) Size() int { return len(v.toks) }

// PieceText returns the surface text of a piece id.
func (v *Vocab) PieceText(id int) string {
	if id < 0 || id >= len(v.toks) {
		return "[?]"
	}
	return v.toks[id]
}

// VocabFromPieces reconstructs a vocabulary from a serialized piece list
// and forceChar set (checkpoint loading). The piece order defines the ids.
func VocabFromPieces(pieces, forceChar []string) *Vocab {
	v := &Vocab{idx: make(map[string]int, len(pieces)), forceChar: make(map[string]bool)}
	for _, f := range forceChar {
		v.forceChar[f] = true
	}
	for _, p := range pieces {
		v.add(p)
	}
	return v
}

// Pieces returns the vocabulary's piece list in id order (serialization).
func (v *Vocab) Pieces() []string { return append([]string{}, v.toks...) }

// ForceCharList returns the forced-character units (serialization).
func (v *Vocab) ForceCharList() []string {
	out := make([]string, 0, len(v.forceChar))
	for k := range v.forceChar {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BuildVocabExtra constructs a vocabulary from token sequences. Units
// occurring at least minCount times become whole pieces; units listed in
// forceChar (e.g. target namespaces) always decompose to characters so the
// model learns character-level copying for names it will never have seen.
// Marker tokens in extra (conventionally "[NAME]") are registered as
// atomic pieces; EncodeToken emits them whole.
func BuildVocabExtra(sequences [][]string, minCount int, forceChar, extra []string) *Vocab {
	v := &Vocab{idx: make(map[string]int), forceChar: make(map[string]bool)}
	for _, f := range forceChar {
		v.forceChar[f] = true
	}
	for _, s := range specialNames {
		v.add(s)
	}
	for b := 0; b < NumConfidenceBuckets; b++ {
		v.add(confName(b))
	}
	for _, m := range extra {
		v.add(m)
	}
	// Single characters (plain and continuation) are the universal
	// fallback and must always exist.
	for c := 33; c < 127; c++ {
		v.add(string(rune(c)))
		v.add("##" + string(rune(c)))
	}
	v.add(" ")
	v.add("## ")

	counts := map[string]int{}
	for _, seq := range sequences {
		for _, tok := range seq {
			for i, unit := range splitUnits(tok) {
				if v.forceChar[unit] || v.forceChar[tok] {
					continue
				}
				key := unit
				if i > 0 {
					key = "##" + unit
				}
				counts[key]++
				// Also count the opposite position so pieces work at
				// either end of a token.
				if i > 0 {
					counts[unit]++
				} else {
					counts["##"+unit]++
				}
			}
		}
	}
	keys := make([]string, 0, len(counts))
	for k, n := range counts {
		if n >= minCount {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v.add(k)
	}
	return v
}

func confName(b int) string {
	return "[CS" + string(rune('0'+b/10)) + string(rune('0'+b%10)) + "]"
}

func (v *Vocab) add(tok string) int {
	if id, ok := v.idx[tok]; ok {
		return id
	}
	id := len(v.toks)
	v.idx[tok] = id
	v.toks = append(v.toks, tok)
	return id
}

// ID returns a piece's id, or UNK.
func (v *Vocab) ID(piece string) int {
	if id, ok := v.idx[piece]; ok {
		return id
	}
	return UNK
}

// Has reports whether the piece exists.
func (v *Vocab) Has(piece string) bool {
	_, ok := v.idx[piece]
	return ok
}

// EncodeToken encodes one source token into piece ids.
func (v *Vocab) EncodeToken(tok string) []int {
	// Bracketed marker tokens are atomic.
	if len(tok) > 1 && tok[0] == '[' && tok[len(tok)-1] == ']' {
		if id, ok := v.idx[tok]; ok {
			return []int{id}
		}
	}
	var out []int
	units := splitUnits(tok)
	for i, unit := range units {
		prefix := ""
		if i > 0 {
			prefix = "##"
		}
		if !v.forceChar[unit] && !v.forceChar[tok] {
			if id, ok := v.idx[prefix+unit]; ok {
				out = append(out, id)
				continue
			}
		}
		// Character fallback.
		for j, r := range unit {
			p := string(r)
			if i > 0 || j > 0 {
				p = "##" + p
			}
			out = append(out, v.ID(p))
		}
	}
	if len(out) == 0 {
		out = append(out, UNK)
	}
	return out
}

// EncodeContinuation encodes text as a continuation of an existing token:
// every piece, including the first, carries the "##" prefix.
func (v *Vocab) EncodeContinuation(text string) []int {
	var out []int
	for _, unit := range splitUnits(text) {
		if !v.forceChar[unit] {
			if id, ok := v.idx["##"+unit]; ok {
				out = append(out, id)
				continue
			}
		}
		for _, r := range unit {
			out = append(out, v.ID("##"+string(r)))
		}
	}
	return out
}

// Encode encodes a token sequence into piece ids.
func (v *Vocab) Encode(toks []string) []int {
	var out []int
	for _, t := range toks {
		out = append(out, v.EncodeToken(t)...)
	}
	return out
}

// Decode reassembles piece ids into source tokens. Special tokens are
// skipped; confidence tokens terminate nothing and are skipped too.
func (v *Vocab) Decode(ids []int) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, id := range ids {
		if id < numSpecial+NumConfidenceBuckets {
			flush()
			continue
		}
		p := v.PieceText(id)
		if strings.HasPrefix(p, "##") {
			cur.WriteString(p[2:])
			continue
		}
		flush()
		cur.WriteString(p)
	}
	flush()
	return out
}

// Units exposes subword decomposition for candidate-similarity scoring.
func Units(tok string) []string { return splitUnits(tok) }

// splitUnits decomposes a source token into subword units: snake_case
// segments, CamelCase runs, digit runs, and individual symbol characters.
// Separators ("_", quotes, spaces) are their own units so decomposition is
// lossless. Letter and digit runs are ASCII, so they come back as
// substrings of tok; a symbol unit is tok's byte when ASCII and
// string(r) otherwise, which maps each invalid UTF-8 byte to U+FFFD as
// decoding the token into runes does.
func splitUnits(tok string) []string {
	units := make([]string, 0, 4)
	class := 0 // of the run being built: 0 none, 1 lower, 2 upper, 3 digit
	start := 0 // the run's first byte
	flush := func(end int) {
		if class != 0 {
			units = append(units, tok[start:end])
		}
	}
	for i, r := range tok {
		switch {
		case r >= 'a' && r <= 'z':
			if class != 1 && class != 2 {
				flush(i)
				start = i
			} else if class == 2 && i-start > 1 {
				// "PCRel": split before the upper that begins this lower run.
				flush(i - 1)
				start = i - 1
			}
			class = 1
		case r >= 'A' && r <= 'Z':
			if class != 2 {
				flush(i)
				start = i
			}
			class = 2
		case r >= '0' && r <= '9':
			if class != 3 {
				flush(i)
				start = i
			}
			class = 3
		default:
			flush(i)
			if r < utf8.RuneSelf {
				units = append(units, tok[i:i+1])
			} else {
				units = append(units, string(r))
			}
			class = 0
		}
	}
	flush(len(tok))
	return units
}
