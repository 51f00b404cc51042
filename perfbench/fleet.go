package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/template"
)

type fleetPhase struct {
	cold, edit, check []float64 // seconds per build
	coldCPU           []float64 // CPU seconds per cold build
	coldAlloc         []float64 // MB allocated per cold build
	coldCorpus        []float64 // corpus seconds per cold build (traced)
	coldCalls         int       // corpus calls of the last cold build (traced)
	hits, misses      float64   // s1cache counters summed over edit rebuilds (traced)
	wall              time.Duration
}

// fleetState is the fleet-ingest input: the extended fleet streamed from
// its target specs, and the provider carrying the edits applied so far.
type fleetState struct {
	specs []*corpus.TargetSpec
	cur   corpus.Provider
	rng   *rand.Rand
	dir   string // parent of the per-build cache directories
}

// runFleetIngest measures Stage 1 over the 56-target extended fleet with
// the per-group Stage 1 cache: each round builds cold into an empty cache
// directory, then applies one seeded (target, function) edit and rebuilds
// against that cache, so one group misses and every other group is read.
func runFleetIngest(r *runner) error {
	specs, err := corpus.Fleet("extended")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(r.state, "tmp"), "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := timeSetup(r, func() (*fleetState, error) {
		return &fleetState{specs: specs, cur: corpus.NewStream(specs), rng: rand.New(rand.NewSource(r.seed)), dir: dir}, nil
	}, nil)
	if err != nil {
		return err
	}
	budget := time.Duration(r.seconds * float64(time.Second))

	if !r.trace {
		ph, err := measureFleet(r, fs, nil, nil, budget)
		if err != nil {
			return err
		}
		r.e2e["op_cpu_ms"] = 1000 * median(ph.coldCPU)
		r.e2e["op_alloc_mb"] = median(ph.coldAlloc)
		r.e2e["quality_pct"] = 100 * (1 - ratio(median(ph.edit), median(ph.cold)))
		r.timing("stage1_cold_s", "s", ph.cold)
		r.timing("stage1_cold_cpu_s", "s", ph.coldCPU)
		r.timing("stage1_edit_s", "s", ph.edit)
		r.note("%-28s %.2f %%", "edit_saving_pct", r.e2e["quality_pct"])
		return nil
	}

	base, err := measureFleet(r, fs, nil, nil, budget/3)
	if err != nil {
		return err
	}
	tr, tp := newTracer(), &timedProvider{}
	m0 := memNow()
	ph, err := measureFleet(r, fs, tr, tp, 2*budget/3)
	if err != nil {
		return err
	}
	cold := median(ph.cold)
	stage1Layers(r, tr, cold, time.Duration(median(ph.coldCorpus)*float64(time.Second)), ph.coldCalls, workers(0))
	edits := float64(len(ph.edit))
	r.layer["s1cache.hits"] = ph.hits / edits
	r.layer["s1cache.misses"] = ph.misses / edits
	r.layer["s1cache.hit_ratio"] = ratio(ph.hits, ph.hits+ph.misses)
	r.layer["s1cache.store_errors"] = tr.value("stage1.cache_store_errors")
	r.layer["s1cache.edit_build_s"] = median(ph.edit)
	if ph.misses != edits {
		r.fail("%v cache misses over %v one-group edits, want exactly one per edit", ph.misses, edits)
	}
	accounted := sum(tr.spans("stage1/templatize")) + sum(tr.spans("stage1/split")) + sum(ph.check)
	phaseLayers(r, m0, cold, median(base.cold), accounted, ph.wall.Seconds())
	return tr.writeSpans(r, "fleet-ingest")
}

// measureFleet runs cold build + edit rebuild rounds until budget has
// elapsed (at least one round), then one more cold build, so that every
// edit rebuild is compared with a cold build of the same edited fleet.
// A non-nil tracer and provider decorator instrument the builds.
func measureFleet(r *runner, fs *fleetState, tr *tracer, tp *timedProvider, budget time.Duration) (*fleetPhase, error) {
	ph := &fleetPhase{}
	cfg := core.DefaultConfig()
	if tr != nil {
		cfg.Obs = tr.o
	}
	provider := func(p corpus.Provider) corpus.Provider {
		if tp == nil {
			return p
		}
		tp.Provider = p
		return tp
	}
	var pendingEdit string // fingerprint of the last edit rebuild, not yet checked
	var buildErr error
	cold := func() (string, bool) {
		prep := time.Now()
		cacheDir, err := os.MkdirTemp(fs.dir, "cache-")
		if err != nil {
			buildErr = err
			return "", false
		}
		cfg.Stage1Cache = cacheDir
		if tp != nil {
			tp.snapshot()
		}
		start, cpu0, alloc0 := time.Now(), cpuTime(), allocBytes()
		ph.check = append(ph.check, start.Sub(prep).Seconds())
		p, err := core.NewFromProvider(provider(fs.cur), cfg)
		done := time.Now()
		ph.coldCPU = append(ph.coldCPU, (cpuTime() - cpu0).Seconds())
		ph.coldAlloc = append(ph.coldAlloc, float64(allocBytes()-alloc0)/(1<<20))
		r.attempted++
		if err != nil {
			r.failed++
			buildErr = fmt.Errorf("cold build: %w", err)
			return "", false
		}
		ph.cold = append(ph.cold, done.Sub(start).Seconds())
		if tp != nil {
			gs, calls, _ := tp.snapshot()
			ph.coldCorpus = append(ph.coldCorpus, gs.Seconds())
			ph.coldCalls = calls
		}
		if n := len(entryNames(cacheDir)); n != len(p.Groups) {
			r.failed++
			r.fail("cold build stored %d cache entries for %d groups", n, len(p.Groups))
		}
		if pendingEdit != "" {
			checkEditRebuild(r, pendingEdit, stage1Fingerprint(p))
		}
		pendingEdit = ""
		ph.check = append(ph.check, time.Since(done).Seconds())
		return cacheDir, true
	}

	ph.wall = window(budget, 1, func() bool {
		cacheDir, ok := cold()
		if !ok {
			return false
		}
		pickStart := time.Now()
		edit, err := pickEdit(fs)
		if err != nil {
			buildErr = err
			return false
		}
		before := entryNames(cacheDir)
		hit0, miss0, corrupt0 := tr.counter("stage1.cache_hit"), tr.counter("stage1.cache_miss"), tr.counter("stage1.cache_corrupt")
		start := time.Now()
		p, err := core.NewFromProvider(provider(edit), cfg)
		done := time.Now()
		ph.check = append(ph.check, start.Sub(pickStart).Seconds())
		r.attempted++
		if err != nil {
			r.failed++
			buildErr = fmt.Errorf("edit rebuild: %w", err)
			return false
		}
		ph.edit = append(ph.edit, done.Sub(start).Seconds())
		fs.cur = edit
		if tr != nil {
			ph.hits += tr.counter("stage1.cache_hit") - hit0
			ph.misses += tr.counter("stage1.cache_miss") - miss0
			if tr.counter("stage1.cache_corrupt") != corrupt0 {
				r.failed++
				r.fail("edit rebuild read a corrupt cache entry")
			}
		}
		added := 0
		for name := range entryNames(cacheDir) {
			if !before[name] {
				added++
			}
		}
		if added != 1 {
			r.failed++
			r.fail("edit rebuild stored %d new cache entries, want exactly 1", added)
		}
		pendingEdit = stage1Fingerprint(p)
		os.RemoveAll(cacheDir) // best-effort: the run's scratch directory goes at exit anyway
		ph.check = append(ph.check, time.Since(done).Seconds())
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	if pendingEdit != "" {
		start := time.Now()
		cacheDir, ok := cold()
		if !ok {
			return nil, buildErr
		}
		ph.wall += time.Since(start)
		os.RemoveAll(cacheDir)
	}
	return ph, nil
}

// checkEditRebuild requires an incremental rebuild after an edit to equal
// a cold build of the same edited fleet.
func checkEditRebuild(r *runner, edit, cold string) {
	if edit != cold {
		r.fail("edit rebuild differs from a cold build of the same edited fleet")
	}
}

// counter reads a counter of a possibly absent tracer.
func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	return t.value(name)
}

// pickEdit draws one (function, target) pair of the current fleet from
// the seeded generator and re-renders that implementation from an edited
// target spec, retrying until the source really changes. The edit
// applies on top of the earlier ones.
func pickEdit(fs *fleetState) (*corpus.Override, error) {
	funcs := corpus.AllFuncs()
	for attempt := 0; attempt < 10000; attempt++ {
		fn := funcs[fs.rng.Intn(len(funcs))]
		gs := fs.cur.GroupSource(fn)
		if len(gs.Targets) == 0 {
			continue
		}
		i := fs.rng.Intn(len(gs.Targets))
		spec := corpus.FindIn(fs.specs, gs.Targets[i])
		if spec == nil {
			continue
		}
		edited := *spec
		edited.StackAlign = 4 << fs.rng.Intn(6)
		edited.NumRegs = spec.NumRegs + 1 + fs.rng.Intn(16)
		src := fn.Gen(&edited)
		if src == "" || src == gs.Sources[i] {
			continue
		}
		if _, err := corpus.ParseFunction(src); err != nil {
			continue
		}
		return &corpus.Override{Provider: fs.cur, FuncName: fn.Name, Target: gs.Targets[i], Source: src}, nil
	}
	return nil, errors.New("no (function, target) pair changes under the spec edits")
}

// stage1Fingerprint hashes a pipeline's serialized Stage 1 state: every
// group's template and features, and the train/verify split.
func stage1Fingerprint(p *core.Pipeline) string {
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
		view.Groups = append(view.Groups, groupView{Name: g.Func.Name, Module: string(g.Func.Module),
			Targets: g.Targets, FT: g.FT, TF: g.TF})
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(view); err != nil {
		return "unencodable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryNames lists the group entries in a cache directory.
func entryNames(dir string) map[string]bool {
	out := map[string]bool{}
	ents, _ := os.ReadDir(dir) // a missing directory has no entries
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".s1g") {
			out[e.Name()] = true
		}
	}
	return out
}
