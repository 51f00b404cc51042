package s1cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/tablegen"
	"vega/internal/template"
)

// testEntry builds a small hand-rolled group entry exercising every
// serialized field: patterns with placeholders, per-target token maps,
// properties, and per-target feature values.
func testEntry() *GroupEntry {
	ft := &template.FunctionTemplate{
		Name: "getRelocType", Module: "EMI",
		Targets: []string{"ARM", "MIPS"},
		Rows: []template.Row{
			{
				Pattern: []template.Elem{
					{Text: "return"},
					{Var: true, Text: "SV0", ID: 0},
					{Text: ";"},
				},
				PerTarget: map[string][]string{
					"ARM":  {"return", "R_ARM_NONE", ";"},
					"MIPS": {"return", "R_MIPS_NONE", ";"},
				},
			},
		},
		NumVars: 1,
	}
	tf := &feature.TemplateFeatures{
		FT: ft,
		Props: []feature.Property{
			{Name: "RelocNone", Kind: feature.Dependent, EnumName: "Fixups"},
		},
		VarProps: map[int][]int{0: {0}},
		Targets: map[string]*feature.TargetFeatures{
			"ARM": {
				Target: "ARM",
				Bools:  map[string]feature.BoolVal{"hasVI": {Value: true, UpdateSite: "ARM.td"}},
				Deps: map[string]feature.DepInfo{
					"RelocNone": {Candidates: []string{"R_ARM_NONE"}, UpdateSite: "ARM.td"},
				},
			},
		},
	}
	return &GroupEntry{FuncName: "getRelocType", Targets: []string{"ARM", "MIPS"}, FT: ft, TF: tf}
}

func TestGroupStoreLoadRoundTrip(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	e := testEntry()
	if err := c.StoreGroup("k1", e); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadGroup("k1")
	if err != nil {
		t.Fatal(err)
	}
	if got.FuncName != e.FuncName || !reflect.DeepEqual(got.Targets, e.Targets) {
		t.Fatalf("identity round-trip mismatch: %+v", got)
	}
	if got.TF.FT != got.FT {
		t.Fatal("TF.FT not relinked to the loaded template")
	}
	if !reflect.DeepEqual(got.FT, e.FT) {
		t.Fatalf("template round-trip mismatch:\n got %+v\nwant %+v", got.FT, e.FT)
	}
	if !reflect.DeepEqual(got.TF.Props, e.TF.Props) ||
		!reflect.DeepEqual(got.TF.Targets, e.TF.Targets) ||
		!reflect.DeepEqual(got.TF.VarProps, e.TF.VarProps) {
		t.Fatal("feature round-trip mismatch")
	}
	// StoreGroup must not have mutated the caller's entry.
	if e.TF.FT != e.FT {
		t.Fatal("StoreGroup detached the caller's TF.FT pointer")
	}
}

func TestLoadGroupMiss(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	if _, err := c.LoadGroup("nope"); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v, want ErrMiss", err)
	}
	if _, err := c.LoadManifest("nope"); !errors.Is(err, ErrMiss) {
		t.Fatalf("manifest err = %v, want ErrMiss", err)
	}
}

func TestLoadGroupCorrupt(t *testing.T) {
	dir := t.TempDir()
	c := &Cache{Dir: dir}
	if err := c.StoreGroup("k", testEntry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "k.s1g")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"payload bit flip", func(b []byte) []byte {
			b[headerLen+1] ^= 0x40
			return b
		}},
		{"truncated payload", func(b []byte) []byte {
			return b[:len(b)-3]
		}},
		{"truncated header", func(b []byte) []byte {
			return b[:headerLen-5]
		}},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}},
		{"wrong version", func(b []byte) []byte {
			b[11] = 99
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mut(append([]byte{}, pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := c.LoadGroup("k"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}

	// Overwriting with a fresh StoreGroup heals the entry.
	if err := c.StoreGroup("k", testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadGroup("k"); err != nil {
		t.Fatalf("load after re-store: %v", err)
	}
}

func TestManifestRoundTripAndGC(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	if err := c.StoreGroup("g1", testEntry()); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreGroup("g2", testEntry()); err != nil {
		t.Fatal(err)
	}
	m1 := &Manifest{Groups: []ManifestGroup{
		{FuncName: "getRelocType", Key: "g1"},
		{FuncName: "other", Key: "g2"},
	}}
	if err := c.StoreManifest("fleet", m1); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadManifest("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m1) {
		t.Fatalf("manifest round-trip mismatch: %+v", got)
	}

	// A new manifest for the same fleet that drops g2 (re-keyed group)
	// garbage-collects the superseded entry but keeps the live one.
	if err := c.StoreGroup("g3", testEntry()); err != nil {
		t.Fatal(err)
	}
	m2 := &Manifest{Groups: []ManifestGroup{
		{FuncName: "getRelocType", Key: "g1"},
		{FuncName: "other", Key: "g3"},
	}}
	if err := c.StoreManifest("fleet", m2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadGroup("g2"); !errors.Is(err, ErrMiss) {
		t.Fatalf("superseded entry not collected: %v", err)
	}
	if _, err := c.LoadGroup("g1"); err != nil {
		t.Fatalf("live entry collected: %v", err)
	}
	if _, err := c.LoadGroup("g3"); err != nil {
		t.Fatalf("new entry collected: %v", err)
	}
}

// TestGroupKeySensitivity pins the incremental-invalidation contract:
// a group's key moves only when that group's own inputs move.
func TestGroupKeySensitivity(t *testing.T) {
	c := corpus.NewStream(corpus.Targets())
	var names []string
	for spec := range c.TargetSpecs() {
		names = append(names, spec.Name)
	}
	core, byTarget := TreeHashes(c.SourceTree(), names)
	fn, ok := corpus.FuncByName("getRelocType")
	if !ok {
		t.Fatal("no getRelocType")
	}
	gs := c.GroupSource(fn)
	k1 := GroupKey(fn.Name, string(fn.Module), gs.Targets, gs.Sources, byTarget, core)
	if k2 := GroupKey(fn.Name, string(fn.Module), gs.Targets, gs.Sources, byTarget, core); k2 != k1 {
		t.Fatal("group key not deterministic")
	}

	// Mutating one member's source changes the key...
	mut := append([]string(nil), gs.Sources...)
	mut[0] += "\n"
	if k := GroupKey(fn.Name, string(fn.Module), gs.Targets, mut, byTarget, core); k == k1 {
		t.Fatal("member source change did not change the group key")
	}
	// ...as does a different function identity...
	if k := GroupKey("other", string(fn.Module), gs.Targets, gs.Sources, byTarget, core); k == k1 {
		t.Fatal("function identity did not participate in the key")
	}
	// ...and an edit to a member's description files...
	c.SourceTree().Add("lib/Target/"+gs.Targets[0]+"/Extra.td", "def Extra;")
	core2, byTarget2 := TreeHashes(c.SourceTree(), names)
	if core2 != core {
		t.Fatal("target-owned file changed the core hash")
	}
	if byTarget2[gs.Targets[0]] == byTarget[gs.Targets[0]] {
		t.Fatal("target tree hash insensitive to its own files")
	}
	if k := GroupKey(fn.Name, string(fn.Module), gs.Targets, gs.Sources, byTarget2, core2); k == k1 {
		t.Fatal("member .td change did not change the group key")
	}
	// ...but another target's description files leave it untouched.
	other := ""
	for _, n := range names {
		inGroup := false
		for _, g := range gs.Targets {
			if g == n {
				inGroup = true
			}
		}
		if !inGroup {
			other = n
			break
		}
	}
	if other != "" {
		c2 := corpus.NewStream(corpus.Targets())
		c2.SourceTree().Add("lib/Target/"+other+"/Extra.td", "def Extra;")
		core3, byTarget3 := TreeHashes(c2.SourceTree(), names)
		if k := GroupKey(fn.Name, string(fn.Module), gs.Targets, gs.Sources, byTarget3, core3); k != k1 {
			t.Fatal("non-member .td change invalidated the group")
		}
	}

	// A core-tree edit invalidates every group.
	c3 := corpus.NewStream(corpus.Targets())
	c3.SourceTree().Add("llvm/CodeGen/Extra.h", "class Extra {};")
	core4, byTarget4 := TreeHashes(c3.SourceTree(), names)
	if core4 == core {
		t.Fatal("core edit did not change the core hash")
	}
	if k := GroupKey(fn.Name, string(fn.Module), gs.Targets, gs.Sources, byTarget4, core4); k == k1 {
		t.Fatal("core change did not change the group key")
	}
}

func TestFleetKeySensitivity(t *testing.T) {
	funcs := []string{"a", "b"}
	targets := []string{"ARM", "Mips"}
	k1 := FleetKey(funcs, targets)
	if k := FleetKey(funcs, targets); k != k1 {
		t.Fatal("fleet key not deterministic")
	}
	if k := FleetKey([]string{"a"}, targets); k == k1 {
		t.Fatal("function-set change did not change the fleet key")
	}
	if k := FleetKey(funcs, []string{"ARM", "Mips", "X86"}); k == k1 {
		t.Fatal("fleet change did not change the fleet key")
	}
}

// TestTreeHashesSeeAdd pins TreeHashes' memo on the tree: repeated calls
// agree and hand out independent maps, and Add replacing a target's .td
// file re-hashes exactly that target's bucket, matching a tree built
// with the new content from scratch, while the tree's parse of the file
// sees the new content too.
func TestTreeHashesSeeAdd(t *testing.T) {
	build := func(armTD string) *tablegen.SourceTree {
		tree := tablegen.NewSourceTree()
		tree.Add("llvm/Target/Target.td", "class Target;")
		tree.Add("lib/Target/ARM/ARM.td", armTD)
		tree.Add("lib/Target/Mips/Mips.td", "def MipsTarget : Target;")
		return tree
	}
	targets := []string{"ARM", "Mips"}
	tree := build("def ARMTarget : Target;")
	core, byTarget := TreeHashes(tree, targets)
	byTarget["ARM"] = "scribbled"
	core2, byTarget2 := TreeHashes(tree, targets)
	if core2 != core || byTarget2["ARM"] == "scribbled" {
		t.Fatal("memoized TreeHashes not stable, or its map shared with a caller")
	}
	if td, err := tree.TD("lib/Target/ARM/ARM.td"); err != nil || td.Records[0].Name != "ARMTarget" {
		t.Fatalf("parse before Add: %+v, %v", td, err)
	}

	tree.Add("lib/Target/ARM/ARM.td", "def ARMv2 : Target;")
	core3, byTarget3 := TreeHashes(tree, targets)
	wantCore, want := TreeHashes(build("def ARMv2 : Target;"), targets)
	if core3 != wantCore || !reflect.DeepEqual(byTarget3, want) {
		t.Fatal("TreeHashes after Add differ from a fresh tree with the same content")
	}
	if byTarget3["ARM"] == byTarget2["ARM"] || byTarget3["Mips"] != byTarget2["Mips"] || core3 != core {
		t.Fatal("Add re-hashed the wrong buckets")
	}
	if td, err := tree.TD("lib/Target/ARM/ARM.td"); err != nil || td.Records[0].Name != "ARMv2" {
		t.Fatalf("parse after Add: %+v, %v", td, err)
	}
}

// The fmt-based key constructions GroupKey, FleetKey and treeHashes
// replaced; the keys must hash the same bytes.

func groupKeyFmt(fnName, module string, targets, sources []string, targetHash map[string]string, coreHash string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|fn|%s|%s\n", formatVersion, fnName, module)
	for i, t := range targets {
		src := ""
		if i < len(sources) {
			src = sources[i]
		}
		fmt.Fprintf(h, "tgt|%s|td=%s|%d|", t, targetHash[t], len(src))
		h.Write([]byte(src))
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "core|%s\n", coreHash)
	return hex.EncodeToString(h.Sum(nil))
}

func fleetKeyFmt(funcs []string, targets []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|fleet\n", formatVersion)
	for _, f := range funcs {
		fmt.Fprintf(h, "fn|%s\n", f)
	}
	for _, t := range targets {
		fmt.Fprintf(h, "tgt|%s\n", t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// treeBucketsFmt renders treeHashes' bucket contents, core under "".
func treeBucketsFmt(tree *tablegen.SourceTree, owner map[string]string) map[string]string {
	sums := map[string]*bytes.Buffer{"": {}}
	for _, p := range tree.Paths() {
		t := owner[p]
		if sums[t] == nil {
			sums[t] = &bytes.Buffer{}
		}
		content, _ := tree.Content(p)
		fmt.Fprintf(sums[t], "file|%s|%d|%s\n", p, len(content), content)
	}
	out := map[string]string{}
	for t, buf := range sums {
		sum := sha256.Sum256(buf.Bytes())
		out[t] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestKeysMatchFmt compares the keys with their fmt-based constructions
// on sample inputs: empty sources, fewer sources than targets, a target
// with no tree hash, empty names, and no targets at all.
func TestKeysMatchFmt(t *testing.T) {
	hashes := map[string]string{"ARM": "a1", "Mips": ""}
	groups := []struct {
		fn, module       string
		targets, sources []string
		core             string
	}{
		{"getRelocType", "EMI", []string{"ARM", "Mips"}, []string{"int f() { return 1; }", ""}, "c0"},
		{"getRelocType", "EMI", []string{"ARM", "X86"}, []string{""}, "c0"},
		{"f", "", []string{"Missing"}, []string{"x|y\n"}, ""},
		{"", "", nil, nil, ""},
	}
	for _, g := range groups {
		if got, want := GroupKey(g.fn, g.module, g.targets, g.sources, hashes, g.core),
			groupKeyFmt(g.fn, g.module, g.targets, g.sources, hashes, g.core); got != want {
			t.Errorf("GroupKey(%q, %q, %q, %q) = %s, fmt gives %s", g.fn, g.module, g.targets, g.sources, got, want)
		}
	}
	for _, f := range [][2][]string{{{"a", "b"}, {"ARM", "Mips"}}, {{""}, nil}, {nil, nil}} {
		if got, want := FleetKey(f[0], f[1]), fleetKeyFmt(f[0], f[1]); got != want {
			t.Errorf("FleetKey(%q, %q) = %s, fmt gives %s", f[0], f[1], got, want)
		}
	}

	tree := tablegen.NewSourceTree()
	owner := map[string]string{}
	for path, t := range map[string]string{
		"llvm/Target/Target.td":                 "",
		"lib/Target/ARM/ARM.td":                 "ARM",
		"lib/Target/ARM/ARMInstrInfo.td":        "ARM",
		"llvm/BinaryFormat/ELFRelocs/Mips.def":  "Mips",
		"lib/Target/Unknown/U.td":               "", // not in the fleet: core
		"llvm/BinaryFormat/ELFRelocs/Other.def": "",
		"lib/Target/Mips/Empty.td":              "Mips",
	} {
		content := "def " + path + ";"
		if path == "lib/Target/Mips/Empty.td" {
			content = ""
		}
		tree.Add(path, content)
		owner[path] = t
	}
	core, byTarget := treeHashes(tree, []string{"ARM", "Mips", "NoFiles"})
	want := treeBucketsFmt(tree, owner)
	got := map[string]string{"": core}
	for t, h := range byTarget {
		got[t] = h
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("treeHashes = %v, fmt gives %v", got, want)
	}
}
