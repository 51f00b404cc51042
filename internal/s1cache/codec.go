package s1cache

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"vega/internal/feature"
	"vega/internal/template"
)

// The payload codec of format version 3. A payload is a string section
// followed by a body:
//
//	payload = uvarint(len(strs)) strs body
//
// strs holds the bytes of every string of the value, concatenated in the
// order the body reads them; the body carries each string's length, and
// the decoder takes the strings as successive substrings of one string.
// Ints are zig-zag varints, other counts uvarints, and every varint is
// minimally encoded. A slice or map length is 0 for nil and n+1 for n
// elements, so nil and empty stay distinct; a pointer or bool is one
// byte, 0 or 1. Map entries follow in ascending key order. One value
// therefore has exactly one encoding: a payload decodes only if
// re-encoding its value gives back the same bytes.
//
// TemplateFeatures.FT is not written: a group entry's features always
// describe the entry's own template, and decoding relinks them.

// encoder writes one payload in one walk over the value.
type encoder struct {
	text    []byte // the string section
	body    []byte
	scratch []string // map keys (see keys)
}

// encodePayload encodes the value that walk writes, as the parts the
// payload concatenates, so the caller writes them without a copy.
func encodePayload(walk func(*encoder)) [][]byte {
	e := &encoder{}
	walk(e)
	return [][]byte{binary.AppendUvarint(nil, uint64(len(e.text))), e.text, e.body}
}

func (e *encoder) uvarint(v uint64) {
	e.body = binary.AppendUvarint(e.body, v)
}

func (e *encoder) int(v int) {
	e.body = binary.AppendVarint(e.body, int64(v))
}

func (e *encoder) bool(v bool) bool {
	b := byte(0)
	if v {
		b = 1
	}
	e.body = append(e.body, b)
	return v
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.text = append(e.text, s...)
}

// length writes a nil-marked length.
func (e *encoder) length(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
	} else {
		e.uvarint(uint64(n) + 1)
	}
}

func (e *encoder) strs(s []string) {
	e.length(len(s), s == nil)
	for _, v := range s {
		e.str(v)
	}
}

// keys writes a map's nil-marked length and returns its keys in
// ascending order. The keys live in one scratch slice per payload.
func keys[V any](e *encoder, m map[string]V) []string {
	e.length(len(m), m == nil)
	start := len(e.scratch)
	for k := range m {
		e.scratch = append(e.scratch, k)
	}
	ks := e.scratch[start:]
	slices.Sort(ks)
	return ks
}

func (e *encoder) group(g *GroupEntry) {
	e.str(g.FuncName)
	e.strs(g.Targets)
	if e.bool(g.FT != nil) {
		e.template(g.FT)
	}
	if e.bool(g.TF != nil) {
		e.features(g.TF)
	}
}

func (e *encoder) template(ft *template.FunctionTemplate) {
	e.str(ft.Name)
	e.str(ft.Module)
	e.strs(ft.Targets)
	e.length(len(ft.Rows), ft.Rows == nil)
	for _, r := range ft.Rows {
		e.length(len(r.Pattern), r.Pattern == nil)
		for _, el := range r.Pattern {
			e.bool(el.Var)
			e.str(el.Text)
			e.int(el.ID)
		}
		for _, t := range keys(e, r.PerTarget) {
			e.str(t)
			e.strs(r.PerTarget[t])
		}
	}
	e.int(ft.NumVars)
}

func (e *encoder) features(tf *feature.TemplateFeatures) {
	e.length(len(tf.Props), tf.Props == nil)
	for _, p := range tf.Props {
		e.str(p.Name)
		e.int(int(p.Kind))
		e.int(int(p.Method))
		e.str(p.IdentifiedSite)
		e.str(p.EnumName)
		e.str(p.ClassName)
	}
	e.length(len(tf.VarProps), tf.VarProps == nil)
	for _, v := range slices.Sorted(maps.Keys(tf.VarProps)) {
		e.int(v)
		ps := tf.VarProps[v]
		e.length(len(ps), ps == nil)
		for _, p := range ps {
			e.int(p)
		}
	}
	for _, t := range keys(e, tf.Targets) {
		e.str(t)
		tgt := tf.Targets[t]
		if !e.bool(tgt != nil) {
			continue
		}
		e.str(tgt.Target)
		for _, k := range keys(e, tgt.Bools) {
			e.str(k)
			e.bool(tgt.Bools[k].Value)
			e.str(tgt.Bools[k].UpdateSite)
		}
		for _, k := range keys(e, tgt.Deps) {
			e.str(k)
			e.strs(tgt.Deps[k].Candidates)
			e.str(tgt.Deps[k].UpdateSite)
		}
	}
}

func (e *encoder) manifest(m *Manifest) {
	e.length(len(m.Groups), m.Groups == nil)
	for _, g := range m.Groups {
		e.str(g.FuncName)
		e.str(g.Key)
	}
}

// encodeGroup and encodeManifest produce the payloads StoreGroup and
// StoreManifest write.
func encodeGroup(g *GroupEntry) [][]byte {
	return encodePayload(func(e *encoder) { e.group(g) })
}

func encodeManifest(m *Manifest) [][]byte {
	return encodePayload(func(e *encoder) { e.manifest(m) })
}

// decoder reads one payload. The first malformation sets err; every
// later read returns a zero value, so loops end without allocating.
type decoder struct {
	b     []byte
	off   int
	text  string   // the string section, converted once
	at    int      // bytes of text already read
	chunk []string // backing for the next string slices (see strs)
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at payload byte %d", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 || int64(int(v)) != v {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return int(v)
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) || d.b[d.off] > 1 {
		d.fail("bad bool")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

// length reads a nil-marked length, -1 for nil. Each element takes at
// least size bytes, so a length the remaining bytes cannot hold is
// rejected before anything is allocated for it.
func (d *decoder) length(size int) int {
	v := d.uvarint()
	if v == 0 {
		return -1
	}
	if v-1 > uint64((len(d.b)-d.off)/size) {
		d.fail("length %d exceeds the payload", v-1)
		return -1
	}
	return int(v - 1)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.text)-d.at) {
		d.fail("string of %d bytes exceeds the string section", n)
	}
	if d.err != nil {
		return ""
	}
	d.at += int(n)
	return d.text[d.at-int(n) : d.at]
}

// strs reads a string slice. Slices are carved from a shared chunk, so a
// group's many token lists take few allocations; each is capped at its
// length, so appending to one copies it rather than overwrite the next.
func (d *decoder) strs() []string {
	n := d.length(1)
	switch {
	case n < 0:
		return nil
	case n == 0:
		return []string{}
	case n > len(d.chunk):
		// Each string takes at least one byte: the chunk never outgrows
		// what the rest of the payload can fill.
		d.chunk = make([]string, max(n, min(len(d.b)-d.off, 1024)))
	}
	s := d.chunk[:n:n]
	d.chunk = d.chunk[n:]
	for i := 0; i < n && d.err == nil; i++ {
		s[i] = d.str()
	}
	return s
}

// finish reports the first malformation, or trailing bytes or unread
// string bytes, which the encoder never writes.
func (d *decoder) finish() error {
	switch {
	case d.err != nil:
	case d.off != len(d.b):
		d.fail("%d trailing bytes", len(d.b)-d.off)
	case d.at != len(d.text):
		d.fail("%d unread string bytes", len(d.text)-d.at)
	}
	return d.err
}

// list reads a nil-marked slice whose elements take at least size
// bytes each.
func list[T any](d *decoder, size int, elem func() T) []T {
	n := d.length(size)
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := 0; i < n && d.err == nil; i++ {
		s[i] = elem()
	}
	return s
}

// dict reads a nil-marked string-keyed map whose entries take at least
// size bytes each; its keys must be in ascending order.
func dict[V any](d *decoder, size int, val func() V) map[string]V {
	n := d.length(size)
	if n < 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail("map keys out of order")
		}
		prev = k
		m[k] = val()
	}
	return m
}

func (d *decoder) template() *template.FunctionTemplate {
	ft := &template.FunctionTemplate{Name: d.str(), Module: d.str(), Targets: d.strs()}
	ft.Rows = list(d, 2, func() template.Row {
		return template.Row{
			Pattern: list(d, 3, func() template.Elem {
				return template.Elem{Var: d.bool(), Text: d.str(), ID: d.int()}
			}),
			PerTarget: dict(d, 2, d.strs),
		}
	})
	ft.NumVars = d.int()
	return ft
}

func (d *decoder) features() *feature.TemplateFeatures {
	tf := &feature.TemplateFeatures{}
	tf.Props = list(d, 6, func() feature.Property {
		return feature.Property{Name: d.str(), Kind: feature.Kind(d.int()), Method: feature.Method(d.int()),
			IdentifiedSite: d.str(), EnumName: d.str(), ClassName: d.str()}
	})
	if n := d.length(2); n >= 0 {
		tf.VarProps = make(map[int][]int, n)
		prev := 0
		for i := 0; i < n && d.err == nil; i++ {
			v := d.int()
			if i > 0 && v <= prev {
				d.fail("map keys out of order")
			}
			prev = v
			tf.VarProps[v] = list(d, 1, d.int)
		}
	}
	tf.Targets = dict(d, 2, func() *feature.TargetFeatures {
		if !d.bool() {
			return nil
		}
		return &feature.TargetFeatures{
			Target: d.str(),
			Bools: dict(d, 3, func() feature.BoolVal {
				return feature.BoolVal{Value: d.bool(), UpdateSite: d.str()}
			}),
			Deps: dict(d, 3, func() feature.DepInfo {
				return feature.DepInfo{Candidates: d.strs(), UpdateSite: d.str()}
			}),
		}
	})
	return tf
}

// decodeGroup and decodeManifest decode the payloads encodeGroup and
// encodeManifest write. Every malformation is a wrapped ErrCorrupt.
func decodeGroup(b []byte) (*GroupEntry, error) {
	d := newDecoder(b)
	g := &GroupEntry{}
	g.FuncName = d.str()
	g.Targets = d.strs()
	if d.bool() {
		g.FT = d.template()
	}
	if d.bool() {
		g.TF = d.features()
		g.TF.FT = g.FT
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

func decodeManifest(b []byte) (*Manifest, error) {
	d := newDecoder(b)
	m := &Manifest{Groups: list(d, 2, func() ManifestGroup {
		return ManifestGroup{FuncName: d.str(), Key: d.str()}
	})}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// newDecoder reads the string section: the strings are substrings of
// one string, so all of them take one allocation.
func newDecoder(b []byte) *decoder {
	d := &decoder{b: b}
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail("string section of %d bytes exceeds the payload", n)
		return d
	}
	d.text = string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return d
}
