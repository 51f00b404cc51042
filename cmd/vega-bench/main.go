// Command vega-bench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index):
//
//	fig6             target-processor overview
//	fig7             inference time per module per target
//	fig8             function accuracy (pass@1), confidence split, multi-source share
//	fig9             statement accuracy, VEGA vs ForkFlow
//	table2           error taxonomy (Err-V / Err-CS / Err-Def)
//	table3           accurate vs manual-effort statement counts
//	table4           estimated manual correction hours
//	fig10            backend performance, base vs corrected-VEGA, O3/O0
//	training         training/verification split statistics
//	forkflow         the fork-flow baseline's accuracy
//	ablation-split   function-group vs backend-based data split
//	ablation-model   transformer vs GRU vs BERT-style generation
//	ablation-pretrain with vs without the pre-training pass
//	all              everything above with one shared trained model
//
// Usage: vega-bench -exp all [-epochs 26] [-samples 2600] [-seed 1] [-fast]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/eval"
	"vega/internal/generate"
	"vega/internal/obs"
)

var (
	expFlag = flag.String("exp", "all", "experiment to run")
	epochs  = flag.Int("epochs", 26, "fine-tuning epochs")
	samples = flag.Int("samples", 2600, "max training samples")
	seed    = flag.Int64("seed", 1, "random seed")
	fast    = flag.Bool("fast", false, "reduced budgets everywhere (smoke run)")
	quiet   = flag.Bool("quiet", false, "suppress epoch logs")
	s1dir   = flag.String("stage1-cache", "", "directory for the content-addressed Stage 1 artifact cache (empty = disabled)")
	metrics = flag.String("metrics", "", "write stage spans and a metric snapshot to this JSON-lines file")
	pprofAt = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
)

func main() {
	flag.Parse()
	var o *obs.Obs // nil unless -metrics: the run is unobserved
	if *metrics != "" {
		jl, err := obs.NewJSONLSink(*metrics)
		check(err)
		o = obs.New(jl)
		defer o.Close()
	}
	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vega-bench: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAt)
	}
	h := &harness{start: time.Now(), obs: o}
	exps := map[string]func(*harness){
		"fig6":              runFig6,
		"fig7":              runFig7,
		"fig8":              runFig8,
		"fig9":              runFig9,
		"table2":            runTable2,
		"table3":            runTable3,
		"table4":            runTable4,
		"fig10":             runFig10,
		"training":          runTraining,
		"forkflow":          runForkFlow,
		"ablation-split":    runAblationSplit,
		"ablation-model":    runAblationModel,
		"ablation-pretrain": runAblationPretrain,
	}
	if *expFlag == "all" {
		for _, name := range []string{
			"fig6", "training", "fig7", "fig8", "table2", "fig9", "table3",
			"table4", "fig10", "forkflow",
			"ablation-split", "ablation-model", "ablation-pretrain",
		} {
			exps[name](h)
		}
		fmt.Printf("\nall experiments in %s\n", time.Since(h.start).Round(time.Second))
		return
	}
	run, ok := exps[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "vega-bench: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	run(h)
}

// harness lazily builds and caches the expensive shared state.
type harness struct {
	start    time.Time
	obs      *obs.Obs
	c        corpus.Provider
	p        *core.Pipeline
	trainRes *core.TrainResult
	gens     map[string]*generate.Backend
	evals    map[string]*eval.BackendEval
}

func (h *harness) corpus() corpus.Provider {
	if h.c == nil {
		h.c = corpus.NewStream(corpus.Targets())
	}
	return h.c
}

// ref returns one target's reference backend.
func (h *harness) ref(target string) *corpus.Backend {
	b, err := h.corpus().ReferenceBackend(target)
	check(err)
	return b
}

func (h *harness) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Train.Epochs = *epochs
	cfg.MaxSamples = *samples
	cfg.Stage1Cache = *s1dir
	cfg.Obs = h.obs
	if *fast {
		cfg.Train.Epochs = 3
		cfg.MaxSamples = 600
		cfg.PretrainEpochs = 1
		cfg.VerifyCap = 80
	}
	if !*quiet {
		cfg.Train.Verbose = func(e int, l float64) {
			fmt.Printf("    epoch %2d  loss %.4f  (%s)\n", e, l, time.Since(h.start).Round(time.Second))
		}
	}
	return cfg
}

func (h *harness) pipeline() *core.Pipeline {
	if h.p == nil {
		fmt.Println("# training CodeBE (shared by all experiments)")
		p, err := core.NewFromProvider(h.corpus(), h.config())
		check(err)
		res, err := p.Train()
		check(err)
		h.p, h.trainRes = p, res
		fmt.Printf("# trained: %d samples, vocab %d, verification EM %.1f%%\n",
			res.Samples, res.VocabSize, 100*res.VerifyExactMatch)
		if res.RetriedEpochs > 0 || res.SkippedSamples > 0 {
			fmt.Printf("# resilience: %d epoch(s) retried, %d sample(s) skipped\n",
				res.RetriedEpochs, res.SkippedSamples)
		}
		fmt.Println()
	}
	return h.p
}

func (h *harness) backend(target string) *generate.Backend {
	if h.gens == nil {
		h.gens = map[string]*generate.Backend{}
	}
	if b, ok := h.gens[target]; ok {
		return b
	}
	b := h.pipeline().GenerateBackend(target)
	if b.Recovered > 0 || b.Partial {
		fmt.Printf("# %s: %d function(s) recovered from crashes, partial=%v\n",
			target, b.Recovered, b.Partial)
	}
	h.gens[target] = b
	return b
}

func (h *harness) evalOf(target string) *eval.BackendEval {
	if h.evals == nil {
		h.evals = map[string]*eval.BackendEval{}
	}
	if e, ok := h.evals[target]; ok {
		return e
	}
	e, err := h.pipeline().Evaluate(h.backend(target))
	check(err)
	h.evals[target] = e
	return e
}

func evalTargetNames() []string { return []string{"RISCV", "RI5CY", "XCore"} }

// paperName maps fleet names to the paper's spellings for display.
func paperName(t string) string {
	if t == "XCore" {
		return "xCORE"
	}
	return t
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vega-bench:", err)
		os.Exit(1)
	}
}

func header(s string) {
	fmt.Println()
	fmt.Println("== " + s + " " + strings.Repeat("=", max(0, 66-len(s))))
}
