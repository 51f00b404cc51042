// Package core orchestrates the VEGA pipeline end to end:
//
//	Pre-processing      — build/accept a backend corpus, group functions
//	Stage 1             — templatize each function group and mine features
//	Stage 2             — encode feature vectors and fine-tune CodeBE
//	Stage 3             — generate a complete backend for a new target
//
// It is the public entry point used by the examples, the CLIs and the
// benchmark harness.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vega/internal/corpus"
	"vega/internal/feature"
	"vega/internal/model"
	"vega/internal/obs"
	"vega/internal/s1cache"
	"vega/internal/template"
)

// ErrDegenerateSplit marks a train/verification split that leaves one
// side empty — Stage 2 would train on zero samples or verify on none.
// The backend-based split (§4.2 ablation) can hit this with small
// fleets or extreme TrainFraction values; the per-group split cannot.
var ErrDegenerateSplit = errors.New("core: degenerate train/verify split")

// Config sizes the pipeline. Defaults are tuned for a single-core run of
// the full benchmark harness; the paper-scale equivalents are recorded in
// EXPERIMENTS.md.
type Config struct {
	// Seed drives every random choice: splits, initial weights and the
	// pre-training and fine-tuning shuffles. A nonzero Model.Seed or
	// Train.Seed overrides it for the weights or the shuffles.
	Seed int64
	// TrainFraction is the share of each function group that goes to the
	// training set (the paper's 75%).
	TrainFraction float64
	// MaxSamples caps the deduplicated fine-tuning set (0 = unlimited).
	MaxSamples int
	// Model sizes CodeBE; Vocab is filled in by Train.
	Model model.Config
	// Train tunes fine-tuning.
	Train model.TrainOptions
	// Pretrain enables the denoising pre-training pass that stands in for
	// UniXcoder's pre-training.
	Pretrain       bool
	PretrainEpochs int
	// SplitByBackend switches the §4.2 ablation: allocate whole backends
	// (not per-group functions) to the training set.
	SplitByBackend bool
	// Arch selects the model architecture: "transformer" (CodeBE),
	// "gru", or "bert" for the ablation baselines.
	Arch string
	// MaxOutPieces caps decoded statement length.
	MaxOutPieces int
	// VerifyCap bounds the verification exact-match sample count, in
	// the MaxSamples convention: 0 (or negative) bounds nothing.
	// DefaultConfig applies the usual 400.
	VerifyCap int
	// Stage1Workers is ignored: the Stage 1 pool follows GOMAXPROCS,
	// like the Stage 2/3 pools. The field stays only so that perfbench,
	// which reads it, keeps compiling until a benchmark change drops it.
	Stage1Workers int
	// Stage1Cache names a directory for the content-addressed Stage 1
	// artifact cache (internal/s1cache). Empty disables caching. On a
	// hit, New restores templates and features from disk and skips
	// templatization entirely; corrupt entries are detected, rebuilt,
	// and overwritten.
	Stage1Cache string
	// Obs receives spans and metrics from every stage. nil (the
	// default) disables observability entirely: instruments degrade to
	// nil no-ops with no allocation or lock contention on any hot path.
	Obs *obs.Obs
}

// DefaultConfig returns single-core-friendly settings.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		TrainFraction: 0.75,
		MaxSamples:    2600,
		Model: model.Config{
			Dim: 48, Heads: 4, EncLayers: 2, DecLayers: 2,
			FFMult: 2, MaxSeq: 160,
		},
		Train: model.TrainOptions{
			Epochs: 12, Batch: 16, LR: 3e-3, MinLoss: 0.015,
			LRDecay: 0.15,
		},
		Pretrain:       true,
		PretrainEpochs: 2,
		Arch:           "transformer",
		MaxOutPieces:   48,
		VerifyCap:      400,
	}
}

// Group is one function group with its template and features.
type Group struct {
	Func    corpus.InterfaceFunc
	FT      *template.FunctionTemplate
	TF      *feature.TemplateFeatures
	Targets []string // training targets implementing the function, in fleet order
}

// Pipeline holds every stage's state.
type Pipeline struct {
	Cfg Config
	// Provider streams the corpus: target specs, the source tree, and one
	// function group at a time. Always set by New/NewFromProvider.
	Provider  corpus.Provider
	Extractor *feature.Extractor
	Groups    []*Group
	Vocab     *model.Vocab
	Model     model.Seq2Seq

	// byName indexes Groups by interface-function name; built once in
	// New so the per-function lookups of the eval and generation paths
	// stay O(1).
	byName map[string]*Group

	// TrainFns / VerifyFns are the (group, target) pairs of the 75/25
	// split, as "funcName/target" keys.
	TrainFns  map[string]bool
	VerifyFns map[string]bool

	// gm caches the Stage 3 instruments so the per-row decode path
	// never takes the registry lock; all fields are nil (inert) when
	// Cfg.Obs is nil.
	gm genMetrics

	// pretrainWarn gates the once-per-pipeline log when the pre-training
	// curriculum overflows pretrainCap.
	pretrainWarn sync.Once
}

// NewFromProvider builds the pipeline through Stage 1 (templates +
// features) over a corpus provider (corpus.Stream, or a decorator of
// one). Templatization is sharded per function group
// over min(GOMAXPROCS, groups) goroutines and merged back in
// corpus.AllFuncs() order, so the result is byte-identical for any worker
// count. When Cfg.Stage1Cache names a directory, each group is separately
// content-addressed (s1cache.GroupKey): a warm build hits every group, an
// edit to one target rebuilds only the groups that include it, and a
// corrupt entry rebuilds and overwrites only itself.
func NewFromProvider(pr corpus.Provider, cfg Config) (*Pipeline, error) {
	p := &Pipeline{
		Cfg:       cfg,
		Provider:  pr,
		Extractor: feature.NewExtractor(pr.SourceTree(), nil),
		TrainFns:  make(map[string]bool),
		VerifyFns: make(map[string]bool),
		gm:        newGenMetrics(cfg.Obs),
	}
	o := cfg.Obs

	span := o.StartSpan("stage1/templatize")
	if err := p.templatize(); err != nil {
		span.End()
		return nil, err
	}
	span.SetAttr(obs.Int("groups", len(p.Groups)))
	span.End()
	return p, p.finishStage1()
}

// stage1Cache bundles the per-group cache state computed once per build.
type stage1Cache struct {
	cache      *s1cache.Cache
	coreHash   string
	targetHash map[string]string
}

// openStage1Cache prepares per-group caching: the cache handle plus the
// core and per-target tree hashes every group key derives from.
func (p *Pipeline) openStage1Cache() *stage1Cache {
	if p.Cfg.Stage1Cache == "" {
		return nil
	}
	var names []string
	for t := range p.Provider.TargetSpecs() {
		names = append(names, t.Name)
	}
	sc := &stage1Cache{cache: &s1cache.Cache{Dir: p.Cfg.Stage1Cache}}
	sc.coreHash, sc.targetHash = s1cache.TreeHashes(p.Provider.SourceTree(), names)
	return sc
}

// templatize runs Stage 1 proper: every function group is streamed from
// the provider, templatized, and feature-mined, fanned out over a bounded
// worker pool. Jobs are indexed by corpus.AllFuncs() order and merged
// back by index, so the result is byte-identical for any worker count
// (the extractor and source-tree caches are mutex-safe and memoize pure
// functions, so scheduling order cannot leak into the output). With a
// cache directory configured, each group is looked up/stored under its
// own content key inside the pool, and a fleet manifest ties the build's
// entries together (superseded entries are garbage-collected).
func (p *Pipeline) templatize() error {
	o := p.Cfg.Obs
	sc := p.openStage1Cache()
	funcs := corpus.AllFuncs()

	workers := min(runtime.GOMAXPROCS(0), len(funcs))
	groups := make([]*Group, len(funcs)) // nil where a function has no group
	keys := make([]string, len(funcs))
	errs := make([]error, len(funcs))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				groups[i], keys[i], errs[i] = p.buildGroup(sc, funcs[i])
			}
		}()
	}
	for i := range funcs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs { // first error in group order, deterministically
		if err != nil {
			return err
		}
	}
	p.Groups = groups[:0:0]
	var manifest s1cache.Manifest
	for i, g := range groups {
		if g == nil {
			continue
		}
		p.Groups = append(p.Groups, g)
		manifest.Groups = append(manifest.Groups, s1cache.ManifestGroup{
			FuncName: funcs[i].Name, Key: keys[i],
		})
	}
	if sc != nil {
		var fnNames, tgtNames []string
		for _, g := range manifest.Groups {
			fnNames = append(fnNames, g.FuncName)
		}
		for t := range p.Provider.TargetSpecs() {
			tgtNames = append(tgtNames, t.Name)
		}
		if err := sc.cache.StoreManifest(s1cache.FleetKey(fnNames, tgtNames), &manifest); err != nil {
			// A read-only or full cache directory must not fail the
			// build; the next run simply misses again.
			o.Counter("stage1.cache_store_errors").Inc()
		}
	}
	return nil
}

// buildGroup produces one function group: cache lookup first (hit /
// corrupt-rebuild / miss, each counted), then templatize + feature-mine
// from the provider's group source, storing the fresh entry back. A
// function no training target implements yields (nil, "", nil). Safe to
// call from pool workers: obs instruments are atomic and the cache is
// keyed per group.
func (p *Pipeline) buildGroup(sc *stage1Cache, ifn corpus.InterfaceFunc) (*Group, string, error) {
	o := p.Cfg.Obs
	gs := p.Provider.GroupSource(ifn)
	if len(gs.Targets) == 0 {
		return nil, "", nil
	}
	key := ""
	if sc != nil {
		key = s1cache.GroupKey(ifn.Name, string(ifn.Module), gs.Targets, gs.Sources, sc.targetHash, sc.coreHash)
		e, err := sc.cache.LoadGroup(key)
		switch {
		case err == nil && e.FuncName == ifn.Name && len(e.Targets) == len(gs.Targets):
			o.Counter("stage1.cache_hit").Inc()
			return &Group{Func: ifn, FT: e.FT, TF: e.TF, Targets: e.Targets}, key, nil
		case err == nil || errors.Is(err, s1cache.ErrCorrupt):
			// A decodable-but-mismatched entry is a hash collision in
			// practice and treated exactly like damage: rebuild this one
			// group and overwrite it.
			o.Counter("stage1.cache_corrupt").Inc()
			o.Counter("stage1.cache_corrupt." + ifn.Name).Inc()
		default: // ErrMiss, or an unreadable cache degrading to a rebuild
			o.Counter("stage1.cache_miss").Inc()
		}
	}

	start := time.Now()
	nodes, err := gs.Impls()
	if err != nil {
		return nil, "", fmt.Errorf("core: templatize %s: %w", ifn.Name, err)
	}
	impls := make([]template.Impl, len(nodes))
	for i, fn := range nodes {
		impls[i] = template.NewImpl(gs.Targets[i], fn)
	}
	ft, err := template.Build(ifn.Name, impls)
	if err != nil {
		return nil, "", fmt.Errorf("core: templatize %s: %w", ifn.Name, err)
	}
	ft.Module = string(ifn.Module)
	tf := p.Extractor.Select(ft, gs.Targets)
	g := &Group{Func: ifn, FT: ft, TF: tf, Targets: gs.Targets}
	o.Counter("stage1.group_builds").Inc()
	o.Gauge("stage1.group_build_seconds." + ifn.Name).Set(time.Since(start).Seconds())

	if sc != nil {
		e := &s1cache.GroupEntry{FuncName: ifn.Name, Targets: g.Targets, FT: ft, TF: tf}
		if err := sc.cache.StoreGroup(key, e); err != nil {
			o.Counter("stage1.cache_store_errors").Inc()
		}
	}
	return g, key, nil
}

// finishStage1 runs the split, builds the name index, and records the
// Stage 1 gauges — shared by the cached and rebuilt paths.
func (p *Pipeline) finishStage1() error {
	o := p.Cfg.Obs
	splitSpan := o.StartSpan("stage1/split")
	err := p.split()
	splitSpan.End()
	if err != nil {
		return err
	}
	p.byName = make(map[string]*Group, len(p.Groups))
	for _, g := range p.Groups {
		p.byName[g.Func.Name] = g
	}
	o.Gauge("stage1.groups").Set(float64(len(p.Groups)))
	o.Gauge("split.train_functions").Set(float64(len(p.TrainFns)))
	o.Gauge("split.verify_functions").Set(float64(len(p.VerifyFns)))
	return nil
}

// split performs the 75/25 train/verification split, either per function
// group (the paper's scheme) or per backend (the §4.2 ablation). The
// backend path clamps the cut like the per-group path does — at least
// one backend trains, and at least one verifies when the fleet has two
// or more — and reports ErrDegenerateSplit when no clamp can save it
// (a one-backend fleet, or a fleet whose groups leave a side empty).
func (p *Pipeline) split() error {
	rng := newRNG(p.Cfg.Seed)
	if p.Cfg.SplitByBackend {
		var names []string
		for _, t := range corpus.TrainingSpecs(p.Provider) {
			names = append(names, t.Name)
		}
		if len(names) < 2 {
			return fmt.Errorf("%w: backend-based split needs ≥ 2 training backends, have %d",
				ErrDegenerateSplit, len(names))
		}
		shuffled := append([]string{}, names...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		cut := int(float64(len(shuffled)) * p.Cfg.TrainFraction)
		if cut < 1 {
			cut = 1
		}
		if cut > len(shuffled)-1 {
			cut = len(shuffled) - 1
		}
		trainSet := map[string]bool{}
		for _, n := range shuffled[:cut] {
			trainSet[n] = true
		}
		for _, g := range p.Groups {
			for _, tgt := range g.Targets {
				key := g.Func.Name + "/" + tgt
				if trainSet[tgt] {
					p.TrainFns[key] = true
				} else {
					p.VerifyFns[key] = true
				}
			}
		}
		if len(p.TrainFns) == 0 || len(p.VerifyFns) == 0 {
			return fmt.Errorf("%w: %d backend(s) split into %d train / %d verify functions",
				ErrDegenerateSplit, len(names), len(p.TrainFns), len(p.VerifyFns))
		}
		return nil
	}
	for _, g := range p.Groups {
		tgts := append([]string{}, g.Targets...)
		rng.Shuffle(len(tgts), func(i, j int) { tgts[i], tgts[j] = tgts[j], tgts[i] })
		cut := int(float64(len(tgts))*p.Cfg.TrainFraction + 0.999)
		if cut < 1 {
			cut = 1
		}
		for i, tgt := range tgts {
			key := g.Func.Name + "/" + tgt
			if i < cut {
				p.TrainFns[key] = true
			} else {
				p.VerifyFns[key] = true
			}
		}
	}
	return nil
}

// GroupByName returns the group for an interface function; O(1) via the
// index built in New.
func (p *Pipeline) GroupByName(name string) *Group {
	return p.byName[name]
}

// Stats summarizes the pipeline for logs and docs.
type Stats struct {
	Groups          int
	Templates       int
	TrainFunctions  int
	VerifyFunctions int
	TrainStatements int
	Properties      int
}

// Stats computes summary counts.
func (p *Pipeline) Stats() Stats {
	s := Stats{Groups: len(p.Groups), Templates: len(p.Groups)}
	s.TrainFunctions = len(p.TrainFns)
	s.VerifyFunctions = len(p.VerifyFns)
	props := map[string]bool{}
	for _, g := range p.Groups {
		for _, pr := range g.TF.Props {
			props[pr.Name] = true
		}
		for _, tgt := range g.Targets {
			if p.TrainFns[g.Func.Name+"/"+tgt] {
				for ri := range g.FT.Rows {
					if g.FT.Rows[ri].HasTarget(tgt) {
						s.TrainStatements++
					}
				}
			}
		}
	}
	s.Properties = len(props)
	return s
}

// TargetSpecs lists the provider's fleet in canonical order.
func (p *Pipeline) TargetSpecs() []*corpus.TargetSpec {
	return corpus.Specs(p.Provider)
}

// FindTarget returns the fleet's target spec with the given name, or nil.
// Unlike the package-level corpus.FindTarget it sees the pipeline's
// actual fleet — extended fleets and adopted targets included.
func (p *Pipeline) FindTarget(name string) *corpus.TargetSpec {
	return corpus.FindSpec(p.Provider, name)
}

// ReferenceBackend returns the parsed reference backend for one of the
// fleet's targets, materializing it on demand under a streaming provider.
func (p *Pipeline) ReferenceBackend(name string) (*corpus.Backend, error) {
	return p.Provider.ReferenceBackend(name)
}
