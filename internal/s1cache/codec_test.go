package s1cache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/template"
)

// fleetEntries builds every group entry of a fleet the way core's Stage 1
// does: templatize each function group from the streamed corpus, then
// select its features with one shared extractor.
func fleetEntries(tb testing.TB, fleet string) []*GroupEntry {
	tb.Helper()
	specs, err := corpus.Fleet(fleet)
	if err != nil {
		tb.Fatal(err)
	}
	pr := corpus.NewStream(specs)
	ex := feature.NewExtractor(pr.SourceTree(), nil)
	var out []*GroupEntry
	for _, fn := range corpus.AllFuncs() {
		gs := pr.GroupSource(fn)
		if len(gs.Targets) == 0 {
			continue
		}
		nodes, err := gs.Impls()
		if err != nil {
			tb.Fatal(err)
		}
		impls := make([]template.Impl, len(nodes))
		for i, n := range nodes {
			impls[i] = template.NewImpl(gs.Targets[i], n)
		}
		ft, err := template.Build(fn.Name, impls)
		if err != nil {
			tb.Fatal(err)
		}
		ft.Module = string(fn.Module)
		tf := ex.Select(ft, gs.Targets)
		out = append(out, &GroupEntry{FuncName: fn.Name, Targets: gs.Targets, FT: ft, TF: tf})
	}
	return out
}

var (
	standardOnce    sync.Once
	standardEntries []*GroupEntry
)

// standard caches the standard fleet's entries for the tests and the
// fuzz seeds.
func standard(tb testing.TB) []*GroupEntry {
	standardOnce.Do(func() { standardEntries = fleetEntries(tb, "standard") })
	if len(standardEntries) == 0 {
		tb.Fatal("no standard-fleet group entries")
	}
	return standardEntries
}

// edgeEntry holds the nil/empty distinctions a fresh build could carry:
// empty but non-nil slices and maps beside nil ones, a nil target, and
// negative ints.
func edgeEntry() *GroupEntry {
	ft := &template.FunctionTemplate{
		Name: "edge", Targets: []string{},
		Rows: []template.Row{
			{Pattern: []template.Elem{}, PerTarget: map[string][]string{}},
			{PerTarget: map[string][]string{"A": nil, "B": {}, "": {""}}},
			{Pattern: []template.Elem{{Var: true, Text: "SV-1", ID: -1}}},
		},
		NumVars: -7,
	}
	tf := &feature.TemplateFeatures{
		FT:       ft,
		Props:    []feature.Property{},
		VarProps: map[int][]int{-2: nil, 0: {}, 5: {-1, 0, 1 << 40}},
		Targets: map[string]*feature.TargetFeatures{
			"A": nil,
			"B": {Bools: map[string]feature.BoolVal{}, Deps: map[string]feature.DepInfo{"p": {}, "q": {Candidates: []string{}}}},
		},
	}
	return &GroupEntry{FuncName: "edge", FT: ft, TF: tf}
}

// exported is the part of an entry a comparison may see: every exported
// field, without FunctionTemplate's unexported Values memo.
func exported(e *GroupEntry) any {
	type ftView struct {
		Name, Module string
		Targets      []string
		Rows         []template.Row
		NumVars      int
	}
	view := func(ft *template.FunctionTemplate) *ftView {
		if ft == nil {
			return nil
		}
		return &ftView{ft.Name, ft.Module, ft.Targets, ft.Rows, ft.NumVars}
	}
	var tf any
	if e.TF != nil {
		tf = []any{view(e.TF.FT), e.TF.Props, e.TF.VarProps, e.TF.Targets}
	}
	return []any{e.FuncName, e.Targets, view(e.FT), tf}
}

// TestCodecRoundTripFleets stores and loads every group of the standard
// and extended fleets: the loaded entry equals the built one field for
// field and in its JSON view, relinks TF.FT, and re-encodes to the same
// bytes.
func TestCodecRoundTripFleets(t *testing.T) {
	entries := append([]*GroupEntry{testEntry(), edgeEntry()}, standard(t)...)
	if testing.Short() {
		t.Log("-short: extended fleet skipped")
	} else {
		entries = append(entries, fleetEntries(t, "extended")...)
	}
	c := &Cache{Dir: t.TempDir()}
	for _, e := range entries {
		if err := c.StoreGroup("k", e); err != nil {
			t.Fatal(err)
		}
		got, err := c.LoadGroup("k")
		if err != nil {
			t.Fatalf("%s: %v", e.FuncName, err)
		}
		if !reflect.DeepEqual(exported(got), exported(e)) {
			t.Fatalf("%s: loaded entry differs from the built one", e.FuncName)
		}
		if got.TF != nil && got.TF.FT != got.FT {
			t.Fatalf("%s: TF.FT not relinked to the loaded template", e.FuncName)
		}
		wantJSON, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: JSON view differs after a round trip", e.FuncName)
		}
		if !bytes.Equal(groupPayload(got), groupPayload(e)) {
			t.Fatalf("%s: re-encoding the loaded entry changed its bytes", e.FuncName)
		}
	}
}

// groupPayload is an entry's payload as one slice.
func groupPayload(e *GroupEntry) []byte {
	return slices.Concat(encodeGroup(e)...)
}

// seedPayloads encodes the hand-built entries and the n smallest
// standard-fleet entries: real payloads small enough for quadratic
// prefix and flip sweeps, and for the fuzzer to mutate quickly.
func seedPayloads(tb testing.TB, n int) [][]byte {
	var real [][]byte
	for _, e := range standard(tb) {
		real = append(real, groupPayload(e))
	}
	slices.SortFunc(real, func(a, b []byte) int { return len(a) - len(b) })
	return append([][]byte{groupPayload(testEntry()), groupPayload(edgeEntry())}, real[:n]...)
}

// malformed checks one payload that must not decode.
func malformed(t *testing.T, name string, payload []byte) {
	t.Helper()
	if _, err := decodeGroup(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
	}
}

// TestDecodeGroupPrefixesAndFlips feeds the payload decoder every strict
// prefix of real payloads, each of which must be ErrCorrupt, and every
// single-byte flip. A flip can land on a value (a bool, an id, a string
// byte) whose changed payload is still well formed; such a payload must
// decode to an entry that encodes back to exactly those bytes, and every
// other flip must be ErrCorrupt.
func TestDecodeGroupPrefixesAndFlips(t *testing.T) {
	for _, p := range seedPayloads(t, 1) {
		for n := 0; n < len(p); n++ {
			malformed(t, "prefix", p[:n])
		}
		rejected := 0
		for i := range p {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				q := bytes.Clone(p)
				q[i] ^= mask
				g, err := decodeGroup(q)
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flip %d^%#x: err = %v, want ErrCorrupt", i, mask, err)
					}
					rejected++
					continue
				}
				if !bytes.Equal(groupPayload(g), q) {
					t.Fatalf("flip %d^%#x decoded but does not re-encode to its bytes", i, mask)
				}
			}
		}
		if rejected == 0 {
			t.Fatal("no single-byte flip was rejected")
		}
	}
}

// TestDecodeMalformed pins the decoder's checks one by one on crafted
// payloads, including lengths far beyond the input that must be
// rejected before anything is allocated for them.
func TestDecodeMalformed(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// A valid minimal entry: FuncName "f", nil Targets, no FT, no TF.
	valid := append(uv(1), append([]byte("f"), uv(1, 0, 0, 0)...)...)
	// FuncName "a", nil Targets, FT{Name "a", Module "a", nil Targets,
	// one row: nil Pattern, PerTarget {k1: nil, k2: nil}}, no TF.
	row := func(k1, k2 string) []byte {
		return append(append(uv(5), "aaa"+k1+k2...), uv(1, 0, 1, 1, 1, 0, 2, 0, 3, 1, 0, 1, 0, 0, 0)...)
	}
	for name, p := range map[string][]byte{"minimal": valid, "one row": row("a", "b")} {
		if _, err := decodeGroup(p); err != nil {
			t.Fatalf("%s entry: %v", name, err)
		}
	}
	cases := map[string][]byte{
		"empty":                   nil,
		"huge string section":     uv(1 << 62),
		"section past the end":    append(uv(5), "ab"...),
		"non-minimal varint":      append(uv(1), append([]byte("f"), 0x81, 0x00, 0, 0, 0)...),
		"string past the section": append(uv(1), append([]byte("f"), uv(2, 0, 0, 0)...)...),
		"unread string bytes":     append(uv(2), append([]byte("fg"), uv(1, 0, 0, 0)...)...),
		"huge slice":              append(uv(1), append([]byte("f"), uv(1, 1<<62, 0, 0)...)...),
		"bool out of range":       append(uv(1), append([]byte("f"), uv(1, 0, 2, 0)...)...),
		"trailing byte":           append(bytes.Clone(valid), 0),
		"map keys out of order":   row("b", "a"),
		"duplicate map key":       row("a", "a"),
	}
	for name, p := range cases {
		malformed(t, name, p)
	}
	if _, err := decodeManifest(uv(1 << 62)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge manifest table: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeManifestPrefixes requires every strict prefix of a manifest
// payload to be ErrCorrupt.
func TestDecodeManifestPrefixes(t *testing.T) {
	m := &Manifest{Groups: []ManifestGroup{{FuncName: "a", Key: "k1"}, {FuncName: "b", Key: "k1"}}}
	p := slices.Concat(encodeManifest(m)...)
	got, err := decodeManifest(p)
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round trip: %+v, %v", got, err)
	}
	for n := 0; n < len(p); n++ {
		if _, err := decodeManifest(p[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// FuzzDecodeGroupEntry feeds arbitrary bytes to the group payload
// decoder, seeded from real entries: it must never panic, must reject
// with ErrCorrupt, and a payload it accepts must re-encode to the same
// bytes (one value, one encoding).
func FuzzDecodeGroupEntry(f *testing.F) {
	for _, p := range seedPayloads(f, 3) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, err := decodeGroup(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(groupPayload(g), payload) {
			t.Fatal("accepted payload does not re-encode to its bytes")
		}
	})
}

// TestCodecCoversFields lists the exported fields the codec writes. A
// field added to one of these types is not cached until the codec
// writes it (and formatVersion moves), so adding one fails here first.
func TestCodecCoversFields(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeFor[GroupEntry](), []string{"FuncName", "Targets", "FT", "TF"}},
		{reflect.TypeFor[template.FunctionTemplate](), []string{"Name", "Module", "Targets", "Rows", "NumVars"}},
		{reflect.TypeFor[template.Row](), []string{"Pattern", "PerTarget"}},
		{reflect.TypeFor[template.Elem](), []string{"Var", "Text", "ID"}},
		{reflect.TypeFor[feature.TemplateFeatures](), []string{"FT", "Props", "VarProps", "Targets"}},
		{reflect.TypeFor[feature.Property](), []string{"Name", "Kind", "Method", "IdentifiedSite", "EnumName", "ClassName"}},
		{reflect.TypeFor[feature.TargetFeatures](), []string{"Target", "Bools", "Deps"}},
		{reflect.TypeFor[feature.BoolVal](), []string{"Value", "UpdateSite"}},
		{reflect.TypeFor[feature.DepInfo](), []string{"Candidates", "UpdateSite"}},
		{reflect.TypeFor[Manifest](), []string{"Groups"}},
		{reflect.TypeFor[ManifestGroup](), []string{"FuncName", "Key"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.fields) {
			t.Errorf("%v has exported fields %v; the codec writes %v", c.typ, got, c.fields)
		}
	}
}
