package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/obs"
	"vega/internal/template"
)

// stage1Fingerprint serializes everything Stage 1 produces — templates,
// features, targets, and the train/verify split — as JSON. encoding/json
// sorts map keys, so equal state always yields equal bytes; any
// divergence between two pipelines shows up as a byte difference.
func stage1Fingerprint(t *testing.T, p *Pipeline) string {
	t.Helper()
	type groupView struct {
		Name    string
		Module  string
		Targets []string
		FT      *template.FunctionTemplate
		TF      *feature.TemplateFeatures
	}
	view := struct {
		Groups    []groupView
		TrainFns  map[string]bool
		VerifyFns map[string]bool
	}{TrainFns: p.TrainFns, VerifyFns: p.VerifyFns}
	for _, g := range p.Groups {
		view.Groups = append(view.Groups, groupView{
			Name: g.Func.Name, Module: string(g.Func.Module),
			Targets: g.Targets, FT: g.FT, TF: g.TF,
		})
	}
	raw, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStage1WorkersDeterminism is the parallel-templatization contract:
// the serialized Stage 1 state is byte-identical for any worker count.
// Run under -race this also exercises the worker pool for data races.
func TestStage1WorkersDeterminism(t *testing.T) {
	c := testCorpus(t)
	var want string
	for _, workers := range []int{1, 3, 8} {
		cfg := tinyConfig()
		cfg.Stage1Workers = workers
		p, err := New(c, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := stage1Fingerprint(t, p)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: Stage 1 state differs from workers=1", workers)
		}
	}
}

// stage1PinnedSHA256 is the SHA-256 of stage1Fingerprint for the
// standard corpus under tinyConfig, recorded before Stage 1 alignment
// moved to interned symbol ids and the bit-parallel LCS kernel. Any
// change to a template, a feature or the split changes it; a deliberate
// output change must re-record it and say why.
const stage1PinnedSHA256 = "924dcfde4fe5d1bb0056134a38dfeb5a3f107f454d43a46b12669d212185b06b"

// TestStage1FingerprintPinned proves Stage 1 output is byte-identical
// across performance work on alignment, templatization and features.
func TestStage1FingerprintPinned(t *testing.T) {
	p, err := New(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(stage1Fingerprint(t, p)))
	if got := hex.EncodeToString(sum[:]); got != stage1PinnedSHA256 {
		t.Fatalf("Stage 1 fingerprint = %s, want %s", got, stage1PinnedSHA256)
	}
}

// stage1PinnedExtendedSHA256 is the SHA-256 of extendedFingerprint,
// recorded before feature discovery was memoized per target and parsed
// .td files moved onto the source tree. It pins the extended fleet's
// Stage 1 state plus every group's TargetValues for the three eval
// targets, the unseen-target path Stage 3 takes.
const stage1PinnedExtendedSHA256 = "8b12b5e7f3383fc141b336a07deb90944390bc0ed0d218d4833bff18b2b3a6a7"

// extendedFingerprint is stage1Fingerprint over a streamed extended-fleet
// pipeline, followed by every group's TargetValues for RISCV, RI5CY and
// XCore in group order.
func extendedFingerprint(t *testing.T) string {
	t.Helper()
	specs, err := corpus.Fleet("extended")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewFromProvider(corpus.NewStream(specs), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(stage1Fingerprint(t, p))
	for _, g := range p.Groups {
		for _, tgt := range []string{"RISCV", "RI5CY", "XCore"} {
			raw, err := json.Marshal(p.Extractor.TargetValues(g.TF, tgt))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "\n%s/%s %s", g.Func.Name, tgt, raw)
		}
	}
	return b.String()
}

// TestStage1FingerprintPinnedExtended is TestStage1FingerprintPinned for
// the 56-target extended fleet, with the eval targets' feature values.
func TestStage1FingerprintPinnedExtended(t *testing.T) {
	sum := sha256.Sum256([]byte(extendedFingerprint(t)))
	if got := hex.EncodeToString(sum[:]); got != stage1PinnedExtendedSHA256 {
		t.Fatalf("extended Stage 1 fingerprint = %s, want %s", got, stage1PinnedExtendedSHA256)
	}
}

// TestTargetValuesConcurrentMatchesSerial resolves every group's values
// for every eval target from 4 goroutines sharing one fresh Extractor, as
// Stage 3's generation workers do, and requires each answer to equal a
// serial run on another fresh Extractor. Under -race it also checks the
// discovery memos for data races.
func TestTargetValuesConcurrentMatchesSerial(t *testing.T) {
	p, err := New(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		g      *Group
		target string
	}
	var jobs []job
	for _, g := range p.Groups {
		for _, spec := range corpus.EvalTargets() {
			jobs = append(jobs, job{g, spec.Name})
		}
	}
	resolve := func(e *feature.Extractor, j job) string {
		raw, err := json.Marshal(e.TargetValues(j.g.TF, j.target))
		if err != nil {
			panic(err)
		}
		return string(raw)
	}
	serial := feature.NewExtractor(p.Provider.SourceTree(), nil)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = resolve(serial, j)
	}
	shared := feature.NewExtractor(p.Provider.SourceTree(), nil)
	got := make([]string, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				got[i] = resolve(shared, jobs[i])
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if got[i] != want[i] {
			t.Fatalf("%s/%s: concurrent TargetValues differ from serial:\n got %s\nwant %s",
				j.g.Func.Name, j.target, got[i], want[i])
		}
	}
}

// counterValue flushes o and reads a counter from the mem sink (0 when
// the counter never fired).
func counterValue(o *obs.Obs, mem *obs.MemSink, name string) float64 {
	o.Flush()
	m, ok := mem.Metric(name)
	if !ok {
		return 0
	}
	return m.Value
}

// TestStage1CacheRoundTrip drives the per-group content-addressed cache
// through miss → populate → hit and requires the cached pipeline to be
// byte-identical to the rebuilt one. Every group gets its own entry plus
// one fleet manifest.
func TestStage1CacheRoundTrip(t *testing.T) {
	c := testCorpus(t)
	dir := t.TempDir()

	baseline, err := New(c, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := stage1Fingerprint(t, baseline)
	n := float64(len(baseline.Groups))

	mem := &obs.MemSink{}
	o := obs.New(mem)
	cfg := tinyConfig()
	cfg.Stage1Cache = dir
	cfg.Obs = o
	cold, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(o, mem, "stage1.cache_miss"); got != n {
		t.Fatalf("cold run: cache_miss = %v, want %v (one per group)", got, n)
	}
	if got := counterValue(o, mem, "stage1.cache_hit"); got != 0 {
		t.Fatalf("cold run: cache_hit = %v, want 0", got)
	}
	if got := counterValue(o, mem, "stage1.group_builds"); got != n {
		t.Fatalf("cold run: group_builds = %v, want %v", got, n)
	}
	if got := stage1Fingerprint(t, cold); got != want {
		t.Fatal("cold (cache-miss) pipeline differs from uncached build")
	}
	groups, _ := filepath.Glob(filepath.Join(dir, "*.s1g"))
	if len(groups) != len(baseline.Groups) {
		t.Fatalf("group entries = %d, want %d", len(groups), len(baseline.Groups))
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "*.s1m"))
	if len(manifests) != 1 {
		t.Fatalf("manifests = %v, want exactly one", manifests)
	}

	mem2 := &obs.MemSink{}
	o2 := obs.New(mem2)
	cfg.Obs = o2
	warm, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(o2, mem2, "stage1.cache_hit"); got != n {
		t.Fatalf("warm run: cache_hit = %v, want %v", got, n)
	}
	if got := counterValue(o2, mem2, "stage1.cache_miss"); got != 0 {
		t.Fatalf("warm run: cache_miss = %v, want 0", got)
	}
	if got := stage1Fingerprint(t, warm); got != want {
		t.Fatal("warm (cache-hit) pipeline differs from uncached build")
	}
	// The hit path must still produce a fully wired pipeline.
	if g := warm.GroupByName("getRelocType"); g == nil || g.TF.FT != g.FT {
		t.Fatal("cache hit left GroupByName index or TF.FT link broken")
	}
}

// TestStage1CacheCorruptRebuild flips a payload byte in one group entry
// and requires the next build to detect the corruption, rebuild exactly
// that group (every other group still hits), and overwrite the entry.
func TestStage1CacheCorruptRebuild(t *testing.T) {
	c := testCorpus(t)
	dir := t.TempDir()

	cfg := tinyConfig()
	cfg.Stage1Cache = dir
	first, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := stage1Fingerprint(t, first)
	n := float64(len(first.Groups))

	entries, _ := filepath.Glob(filepath.Join(dir, "*.s1g"))
	if len(entries) != len(first.Groups) {
		t.Fatalf("cache entries = %d, want %d", len(entries), len(first.Groups))
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20 // flip a bit deep in the gob payload
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mem := &obs.MemSink{}
	o := obs.New(mem)
	cfg.Obs = o
	rebuilt, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(o, mem, "stage1.cache_corrupt"); got != 1 {
		t.Fatalf("cache_corrupt = %v, want 1", got)
	}
	if got := counterValue(o, mem, "stage1.cache_hit"); got != n-1 {
		t.Fatalf("cache_hit = %v, want %v (all but the corrupt group)", got, n-1)
	}
	if got := counterValue(o, mem, "stage1.group_builds"); got != 1 {
		t.Fatalf("group_builds = %v, want 1 (only the corrupt group)", got)
	}
	// The corruption counter is also keyed by group for triage.
	o.Flush()
	perGroup := 0
	for _, m := range mem.Metrics() {
		if strings.HasPrefix(m.Name, "stage1.cache_corrupt.") && m.Value > 0 {
			perGroup++
		}
	}
	if perGroup != 1 {
		t.Fatalf("per-group corrupt counters = %d, want 1", perGroup)
	}
	if got := stage1Fingerprint(t, rebuilt); got != want {
		t.Fatal("rebuild after corruption differs from original state")
	}

	// The rebuild overwrote the corrupt entry: the next run hits clean.
	mem2 := &obs.MemSink{}
	o2 := obs.New(mem2)
	cfg.Obs = o2
	healed, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(o2, mem2, "stage1.cache_hit"); got != n {
		t.Fatalf("after heal: cache_hit = %v, want %v", got, n)
	}
	if got := stage1Fingerprint(t, healed); got != want {
		t.Fatal("healed cache entry decodes to different state")
	}
}

// overrideProvider wraps the shared test corpus with one edited
// implementation: ARM's getStackAlignment regenerated from a spec whose
// StackAlign changed, exactly one group's content.
func overrideProvider(t *testing.T, c *corpus.Corpus, align int) corpus.Provider {
	t.Helper()
	fn, ok := corpus.FuncByName("getStackAlignment")
	if !ok {
		t.Fatal("no getStackAlignment interface function")
	}
	spec := corpus.FindTarget("ARM")
	if spec == nil {
		t.Fatal("no ARM target")
	}
	edited := *spec
	edited.StackAlign = align
	return &corpus.Override{Provider: c, FuncName: fn.Name, Target: "ARM", Source: fn.Gen(&edited)}
}

// TestStage1IncrementalInvalidation is the tentpole contract: after a
// warm build, editing one target's implementation of one function misses
// exactly that group — every other group hits — and the incremental
// result is byte-identical to a cold build of the same edited corpus,
// for every worker count.
func TestStage1IncrementalInvalidation(t *testing.T) {
	c := testCorpus(t)
	edited := overrideProvider(t, c, 64)

	// Cold truth for the edited corpus, no cache involved.
	coldEdited, err := NewFromProvider(edited, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := stage1Fingerprint(t, coldEdited)

	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			cfg := tinyConfig()
			cfg.Stage1Cache = dir
			cfg.Stage1Workers = workers

			warm, err := NewFromProvider(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := float64(len(warm.Groups))

			mem := &obs.MemSink{}
			o := obs.New(mem)
			cfg.Obs = o
			incr, err := NewFromProvider(edited, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := counterValue(o, mem, "stage1.cache_miss"); got != 1 {
				t.Fatalf("cache_miss = %v, want exactly 1 (the edited group)", got)
			}
			if got := counterValue(o, mem, "stage1.cache_hit"); got != n-1 {
				t.Fatalf("cache_hit = %v, want %v", got, n-1)
			}
			if got := counterValue(o, mem, "stage1.group_builds"); got != 1 {
				t.Fatalf("group_builds = %v, want 1", got)
			}
			if got := stage1Fingerprint(t, incr); got != want {
				t.Fatal("incremental rebuild differs from cold build of the edited corpus")
			}
			// The edited group really changed content, not just identity.
			if g := incr.GroupByName("getStackAlignment"); g == nil {
				t.Fatal("edited group missing")
			}
			if stage1Fingerprint(t, warm) == want {
				t.Fatal("override was a no-op: edited fingerprint equals unedited")
			}
		})
	}
}

// TestStreamingProviderEquivalence pins the Provider abstraction: a
// pipeline built from the streaming provider (groups rendered on demand,
// nothing resident) is byte-identical to one built from the resident
// corpus.
func TestStreamingProviderEquivalence(t *testing.T) {
	resident, err := New(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := NewFromProvider(corpus.NewStream(corpus.Targets()), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stage1Fingerprint(t, streamed) != stage1Fingerprint(t, resident) {
		t.Fatal("streaming provider's Stage 1 state differs from resident corpus")
	}
	if streamed.Corpus != nil {
		t.Fatal("streaming pipeline should have no resident corpus")
	}
	if _, err := streamed.ReferenceBackend("ARM"); err != nil {
		t.Fatalf("streaming ReferenceBackend: %v", err)
	}
	if streamed.FindTarget("RISCV") == nil {
		t.Fatal("streaming FindTarget lost the eval targets")
	}
}
