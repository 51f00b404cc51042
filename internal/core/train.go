package core

import (
	"context"
	"fmt"
	"log"
	"strings"

	"vega/internal/model"
	"vega/internal/obs"
)

// TrainResult reports Stage 2 outcomes.
type TrainResult struct {
	Samples        int
	VocabSize      int
	Params         int
	EpochLosses    []float64
	PretrainLosses []float64
	// VerifyExactMatch is the exact-match score on the held-out 25%
	// verification split (the paper reports 99.03%).
	VerifyExactMatch float64
	VerifySamples    int
	// RetriedEpochs counts epochs re-run from last-good weights after a
	// NaN/Inf or diverging loss (pre-training included).
	RetriedEpochs int
	// SkippedSamples counts samples dropped mid-epoch for non-finite
	// losses or isolated panics.
	SkippedSamples int
	// Canceled is set when the context stopped training early; the
	// result then describes the partial run.
	Canceled bool
}

// Train runs Stage 2 to completion; it is TrainContext without
// cancellation.
func (p *Pipeline) Train() (*TrainResult, error) {
	return p.TrainContext(context.Background())
}

// TrainingData builds the Stage 2 vocabulary and the encoded, deduplicated
// fine-tuning set without training anything — the entry point the Fig. 6
// training-time benchmark and diagnostics use to time one epoch in
// isolation. TrainContext performs the same construction inline.
func (p *Pipeline) TrainingData() []model.Sample {
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	all := append(p.samplesForSplit(p.TrainFns), p.absentSamples()...)
	return p.dedupAndCap(all, p.Cfg.MaxSamples, p.Cfg.Seed+1)
}

// InitUntrained builds the vocabulary and a freshly initialized (seeded,
// untrained) model without running Stage 2. Decoding works immediately
// and is deterministic for a given seed — the cheap way to stand up a
// decode-capable pipeline where output *stability* matters but trained
// weights do not (the serving concurrency/soak tests, dry runs of the
// serving stack, smoke tooling).
func (p *Pipeline) InitUntrained() error {
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	cfg := p.Cfg.Model
	cfg.Vocab = p.Vocab.Size()
	if cfg.Seed == 0 {
		cfg.Seed = p.Cfg.Seed
	}
	m, err := newModel(p.Cfg.Arch, cfg, p.Cfg.MaxOutPieces)
	if err != nil {
		return err
	}
	p.Model = m
	return nil
}

// newModel constructs a freshly initialized model of the named
// architecture ("" means transformer).
func newModel(arch string, cfg model.Config, maxOut int) (model.Seq2Seq, error) {
	switch arch {
	case "", "transformer":
		return model.NewTransformer(cfg), nil
	case "gru":
		return model.NewGRUSeq2Seq(cfg), nil
	case "bert":
		return model.NewBERTStyle(cfg, maxOut), nil
	}
	return nil, fmt.Errorf("core: unknown architecture %q", arch)
}

// TrainContext runs Stage 2: builds the vocabulary, encodes the training
// split, optionally pre-trains with a denoising objective, and fine-tunes
// the selected architecture. When ctx is canceled or times out, the
// partial TrainResult (epochs completed so far) is returned alongside the
// error so callers can salvage or report it.
func (p *Pipeline) TrainContext(ctx context.Context) (*TrainResult, error) {
	o := p.Cfg.Obs
	ctx = obs.With(ctx, o)
	ctx, span := obs.Start(ctx, "stage2/train")
	defer span.End()

	// Vocabulary over the training split only.
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	o.Gauge("vocab.size").Set(float64(p.Vocab.Size()))

	cfg := p.Cfg.Model
	cfg.Vocab = p.Vocab.Size()
	if cfg.Seed == 0 {
		cfg.Seed = p.Cfg.Seed
	}
	m, err := newModel(p.Cfg.Arch, cfg, p.Cfg.MaxOutPieces)
	if err != nil {
		return nil, err
	}
	p.Model = m

	res := &TrainResult{VocabSize: p.Vocab.Size()}
	if t, ok := p.Model.(*model.Transformer); ok {
		res.Params = t.NumParams()
	}
	o.Gauge("train.params").Set(float64(res.Params))

	if p.Cfg.Pretrain && p.Cfg.PretrainEpochs > 0 {
		pre := p.pretrainSamples()
		o.Gauge("pretrain.samples").Set(float64(len(pre)))
		opt := p.Cfg.Train
		opt.Epochs = p.Cfg.PretrainEpochs
		opt.MinLoss = 0
		preCtx, preSpan := obs.Start(ctx, "stage2/pretrain", obs.Int("samples", len(pre)))
		stats, err := model.FitContext(preCtx, p.Model, pre, opt)
		preSpan.End()
		res.PretrainLosses = stats.EpochLosses
		res.RetriedEpochs += stats.RetriedEpochs
		res.SkippedSamples += stats.SkippedSamples
		if err != nil {
			res.Canceled = stats.Canceled
			return res, fmt.Errorf("core: pretrain: %w", err)
		}
	}

	all := append(p.samplesForSplit(p.TrainFns), p.absentSamples()...)
	train := p.dedupAndCap(all, p.Cfg.MaxSamples, p.Cfg.Seed+1)
	res.Samples = len(train)
	o.Gauge("train.samples").Set(float64(len(train)))
	fitCtx, fitSpan := obs.Start(ctx, "stage2/fit", obs.Int("samples", len(train)))
	stats, err := model.FitContext(fitCtx, p.Model, train, p.Cfg.Train)
	fitSpan.End()
	res.EpochLosses = stats.EpochLosses
	res.RetriedEpochs += stats.RetriedEpochs
	res.SkippedSamples += stats.SkippedSamples
	if err != nil {
		res.Canceled = stats.Canceled
		return res, fmt.Errorf("core: train: %w", err)
	}

	// Verification exact match on (a capped subset of) the 25% split.
	// VerifyCap follows the MaxSamples convention: 0 or negative bounds
	// nothing (the 400 default lives in DefaultConfig), so an explicit
	// "verify on everything" run is expressible.
	vcap := p.Cfg.VerifyCap
	o.Gauge("verify.cap_applied").Set(float64(max(vcap, 0))) // 0 = unlimited
	verify := p.dedupAndCap(p.samplesForSplit(p.VerifyFns), vcap, p.Cfg.Seed+2)
	res.VerifySamples = len(verify)
	_, vSpan := obs.Start(ctx, "stage2/verify", obs.Int("samples", len(verify)))
	res.VerifyExactMatch = model.ExactMatch(p.Model, verify, p.Cfg.MaxOutPieces)
	vSpan.End()
	o.Gauge("verify.samples").Set(float64(res.VerifySamples))
	o.Gauge("verify.exact_match").Set(res.VerifyExactMatch)
	return res, nil
}

// pretrainCap bounds the pre-training curriculum after shuffling. The
// cap is never silent: hitting it logs once and counts the drop in the
// pretrain.samples_dropped metric, so ablation runs can see it.
const pretrainCap = 1600

// pretrainSamples builds the pre-training curriculum that stands in for
// UniXcoder's pre-training: (a) denoising — reconstruct each statement
// from a corrupted copy (15% of pieces dropped) — and (b) candidate
// copying — emit the value following a [CAND] marker — which primes the
// cross-attention copy behaviour backend generation depends on.
func (p *Pipeline) pretrainSamples() []model.Sample {
	rng := newRNG(p.Cfg.Seed + 7)
	var out []model.Sample
	candID := p.Vocab.ID(markCand)
	varID := p.Vocab.ID(markVar)
	for _, g := range p.Groups {
		for _, tgt := range g.Targets {
			if !p.TrainFns[g.Func.Name+"/"+tgt] {
				continue
			}
			for ri := range g.FT.Rows {
				toks, ok := g.FT.Rows[ri].PerTarget[tgt]
				if !ok {
					continue
				}
				ids := p.Vocab.Encode(toks)
				if len(ids) < 3 {
					continue
				}
				in := []int{model.CLS}
				for _, id := range ids {
					if rng.Float64() < 0.15 {
						continue
					}
					in = append(in, id)
				}
				out = append(out, model.Sample{Input: in, Output: ids})
			}
			// Selection curriculum: given a query value and a candidate
			// list, emit the selection token of the matching candidate —
			// the content-matching skill generation relies on.
			tv := g.TF.Targets[tgt]
			for _, pr := range g.TF.DependentProps() {
				dep, ok := tv.Deps[pr.Name]
				if !ok || len(dep.Candidates) == 0 {
					continue
				}
				window := dep.Candidates
				if len(window) > 6 {
					window = window[:6]
				}
				for i, c := range window {
					in := []int{model.CLS, candID}
					in = append(in, p.Vocab.Encode(strings.Fields(c))...)
					in = append(in, model.SEP, varID)
					for j, w := range window {
						in = append(in, p.Vocab.ID(selMarks[j]))
						in = append(in, p.Vocab.Encode(strings.Fields(w))...)
					}
					out = append(out, model.Sample{Input: in, Output: []int{p.Vocab.ID(selMarks[i])}})
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > pretrainCap {
		dropped := len(out) - pretrainCap
		p.Cfg.Obs.Counter("pretrain.samples_dropped").Add(float64(dropped))
		p.pretrainWarn.Do(func() {
			log.Printf("core: pre-training curriculum capped at %d samples (%d dropped)",
				pretrainCap, dropped)
		})
		out = out[:pretrainCap]
	}
	return out
}
