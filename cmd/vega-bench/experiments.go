package main

import (
	"fmt"
	"math"
	"strings"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/eval"
	"vega/internal/forkflow"
)

// runTraining reports the §4.1.2 statistics: dataset sizes, the 75/25
// split, and the verification-set exact match (the paper reports 99.03%).
func runTraining(h *harness) {
	header("§4.1.2 training setup")
	p := h.pipeline()
	st := p.Stats()
	fmt.Printf("function groups:        %d   (paper: 825)\n", st.Groups)
	fmt.Printf("training functions:     %d   (paper: 7,902)\n", st.TrainFunctions)
	fmt.Printf("verification functions: %d   (paper: 3,338)\n", st.VerifyFunctions)
	fmt.Printf("training statements:    %d   (paper: 107,718)\n", st.TrainStatements)
	fmt.Printf("mined properties:       %d   (paper: 345)\n", st.Properties)
	fmt.Printf("verification exact match: %.2f%%  (paper: 99.03%%)\n", 100*h.trainRes.VerifyExactMatch)
}

// runFig7 prints per-module generation times for the three targets. The
// rows are read from the metrics sink (the gen.seconds.<target>.<module>
// counters Stage 3's worker pool emits), not from ad-hoc time.Since
// bookkeeping — and each cell is asserted against Backend.Seconds so the
// two instrumentations can never silently drift apart. The cells sum
// per-function time over overlapping workers; the wall column is the
// generation pool's wall clock (Backend.Wall).
func runFig7(h *harness) {
	header("Fig. 7: inference times per function module (seconds)")
	fmt.Printf("%-8s", "")
	for _, m := range corpus.Modules {
		fmt.Printf("%8s", m)
	}
	fmt.Printf("%10s%8s\n", "total", "wall")
	for _, tgt := range evalTargetNames() {
		b := h.backend(tgt) // ensures Stage 3 ran and its metrics recorded
		fmt.Printf("%-8s", paperName(tgt))
		total := 0.0
		for _, m := range corpus.Modules {
			sec, ok := b.Seconds[string(m)]
			if !ok {
				fmt.Printf("%8s", "-")
				continue
			}
			mSec, mok := h.moduleSeconds(tgt, string(m))
			if sec > 0 && (!mok || math.Abs(mSec-sec) > 1e-6*(1+sec)) {
				check(fmt.Errorf("fig7: %s/%s: metrics sink says %.6fs (found=%v), Backend.Seconds says %.6fs",
					tgt, m, mSec, mok, sec))
			}
			if mok {
				sec = mSec
			}
			total += sec
			fmt.Printf("%8.1f", sec)
		}
		fmt.Printf("%10.1f%8.1f\n", total, b.Wall)
	}
	fmt.Println("(rows from the metrics sink: gen.seconds.<target>.<module>, each")
	fmt.Println(" function's inference time summed over the overlapping generation")
	fmt.Println(" workers; wall is the generation pool's wall clock per backend;")
	fmt.Println(" paper: 1,383s RISC-V, 1,664s RI5CY, 424s xCORE — GPU inference;")
	fmt.Println(" the shape to hold is per-module proportionality, all under an hour)")
}

// runFig8 prints function-level pass@1 accuracy per module with the
// confidence split and the multi-source share.
func runFig8(h *harness) {
	header("Fig. 8: function accuracy by module (pass@1)")
	for _, tgt := range evalTargetNames() {
		be := h.evalOf(tgt)
		fmt.Printf("%s:\n", paperName(tgt))
		fmt.Printf("  %-4s %9s %9s %10s %12s\n", "mod", "accurate", "conf≈1.0", "conf<1.0", "multi-src")
		for _, m := range be.ByModule() {
			fmt.Printf("  %-4s %4d/%-4d %9d %10d %12d\n",
				m.Module, m.Accurate, m.Funcs, m.HighConf, m.MidConf, m.MultiSource)
		}
		tot := be.Totals()
		fmt.Printf("  ALL  %4d/%-4d  -> %.1f%% of all functions; %.1f%% module average\n",
			tot.Accurate, tot.Funcs, 100*tot.FunctionAccuracy(), 100*be.ModuleAverageAccuracy())
	}
	fmt.Println("(paper: 71.5% RISC-V, 73.2% RI5CY, 62.2% xCORE over all functions)")
}

// runTable2 prints the error taxonomy.
func runTable2(h *harness) {
	header("Table 2: sources of inaccurate statements")
	fmt.Printf("%-10s %8s %8s %8s\n", "error", "RISC-V", "RI5CY", "xCORE")
	shares := map[string][3]float64{}
	for i, tgt := range evalTargetNames() {
		v, cs, def := h.evalOf(tgt).ErrorShare()
		for name, val := range map[string]float64{"Err-V": v, "Err-CS": cs, "Err-Def": def} {
			arr := shares[name]
			arr[i] = val
			shares[name] = arr
		}
	}
	for _, name := range []string{"Err-V", "Err-CS", "Err-Def"} {
		arr := shares[name]
		fmt.Printf("%-10s %7.1f%% %7.1f%% %7.1f%%\n", name, 100*arr[0], 100*arr[1], 100*arr[2])
	}
	fmt.Println("(paper: Err-V 3.9/3.0/1.1, Err-CS 11.6/10.6/10.1, Err-Def 23.9/22.9/37.2;")
	fmt.Println(" the shape to hold: Err-Def dominates, Err-V is rarest)")
}

// runFig9 compares VEGA and ForkFlow at the statement level.
func runFig9(h *harness) {
	header("Fig. 9: statement-level accuracy, VEGA vs ForkFlow")
	for _, tgt := range evalTargetNames() {
		vega := h.evalOf(tgt).ByModule()
		ff := h.forkFlowEval(tgt).ByModule()
		ffBy := map[string]eval.ModuleStats{}
		for _, m := range ff {
			ffBy[m.Module] = m
		}
		fmt.Printf("%s:\n  %-4s %12s %12s\n", paperName(tgt), "mod", "VEGA", "ForkFlow")
		var vAcc, vTot, fAcc int
		for _, m := range vega {
			f := ffBy[m.Module]
			fmt.Printf("  %-4s %6.1f%%      %6.1f%%\n",
				m.Module, 100*m.StatementAccuracy(), 100*f.StatementAccuracy())
			vAcc += m.AccurateStatements
			vTot += m.RefStatements
			fAcc += f.AccurateStatements
		}
		fmt.Printf("  ALL  %6.1f%%      %6.1f%%\n",
			100*float64(vAcc)/float64(vTot), 100*float64(fAcc)/float64(vTot))
	}
	fmt.Println("(paper: VEGA 55.0/58.5/38.5% vs ForkFlow ~14%, >85% manual effort)")
}

// runTable3 prints accurate vs manual-effort statement counts.
func runTable3(h *harness) {
	header("Table 3: statements accurate vs requiring manual effort")
	fmt.Printf("%-5s", "mod")
	for _, tgt := range evalTargetNames() {
		fmt.Printf(" | %7s %7s", paperName(tgt), "")
	}
	fmt.Println()
	fmt.Printf("%-5s", "")
	for range evalTargetNames() {
		fmt.Printf(" | %7s %7s", "accur.", "manual")
	}
	fmt.Println()
	byMod := map[string]map[string]eval.ModuleStats{}
	for _, tgt := range evalTargetNames() {
		byMod[tgt] = map[string]eval.ModuleStats{}
		for _, m := range h.evalOf(tgt).ByModule() {
			byMod[tgt][m.Module] = m
		}
	}
	for _, mod := range corpus.Modules {
		fmt.Printf("%-5s", mod)
		for _, tgt := range evalTargetNames() {
			if m, ok := byMod[tgt][string(mod)]; ok {
				fmt.Printf(" | %7d %7d", m.AccurateStatements, m.ManualEffort)
			} else {
				fmt.Printf(" | %7s %7s", "-", "-")
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-5s", "ALL")
	for _, tgt := range evalTargetNames() {
		tot := h.evalOf(tgt).Totals()
		fmt.Printf(" | %7d %7d", tot.AccurateStatements, tot.ManualEffort)
	}
	fmt.Println()
	fmt.Println("(paper RISC-V: 5,524 accurate / 7,223 manual across 12,747 statements)")
}

// runTable4 prints the estimated correction hours.
func runTable4(h *harness) {
	header("Table 4: estimated manual correction effort (hours, RISC-V)")
	mods := h.evalOf("RISCV").ByModule()
	ha := eval.DeveloperA.Hours(mods)
	hb := eval.DeveloperB.Hours(mods)
	fmt.Printf("%-5s %12s %12s\n", "mod", "developer A", "developer B")
	for _, m := range mods {
		fmt.Printf("%-5s %12.2f %12.2f\n", m.Module, ha[m.Module], hb[m.Module])
	}
	fmt.Printf("%-5s %12.2f %12.2f\n", "ALL",
		eval.DeveloperA.TotalHours(mods), eval.DeveloperB.TotalHours(mods))
	fmt.Println("(simulated from manual-statement counts at the paper's calibrated rate;")
	fmt.Println(" paper: 42.54h / 48.12h for the full-scale RISC-V backend)")
}

// forkFlowEval forks the paper's donor backend to target and scores the
// fork against the target's reference.
func (h *harness) forkFlowEval(target string) *eval.BackendEval {
	ff, err := forkflow.Fork(h.corpus(), forkflow.DefaultDonor, target)
	check(err)
	return eval.EvaluateBackend(ff, h.ref(target), nil)
}

// runForkFlow prints the baseline comparison (§4.2).
func runForkFlow(h *harness) {
	header("ForkFlow baseline: function accuracy (pass@1)")
	fmt.Printf("%-8s %14s %14s\n", "target", "ForkFlow", "VEGA")
	for _, tgt := range evalTargetNames() {
		ff := h.forkFlowEval(tgt)
		ft, vt := ff.Totals(), h.evalOf(tgt).Totals()
		fmt.Printf("%-8s %6d/%-3d %.1f%% %6d/%-3d %.1f%%\n",
			paperName(tgt), ft.Accurate, ft.Funcs, 100*ft.FunctionAccuracy(),
			vt.Accurate, vt.Funcs, 100*vt.FunctionAccuracy())
	}
	fmt.Println("(paper: ForkFlow 7.9/6.7/2.1% vs VEGA 71.5/73.2/62.2%)")
}

// ablationRun trains a fresh pipeline under a modified config and reports
// overall accuracy on the three targets.
func (h *harness) ablationRun(label string, mutate func(*core.Config)) [3]float64 {
	cfg := h.config()
	cfg.Train.Verbose = nil
	// Ablation pipelines must not pollute the shared per-target timing
	// counters fig7 asserts against, so they run unobserved.
	cfg.Obs = nil
	// Ablations run at a reduced budget: relative ordering is the result.
	if !*fast {
		cfg.Train.Epochs = max(4, *epochs/3)
		cfg.MaxSamples = 1200
		cfg.PretrainEpochs = 1
		cfg.VerifyCap = 60
	}
	mutate(&cfg)
	p, err := core.NewFromProvider(h.corpus(), cfg)
	check(err)
	_, err = p.Train()
	check(err)
	var out [3]float64
	for i, tgt := range evalTargetNames() {
		be := eval.EvaluateBackend(p.GenerateBackend(tgt), h.ref(tgt), nil)
		out[i] = be.Totals().FunctionAccuracy()
	}
	fmt.Printf("  %-28s %6.1f%% %6.1f%% %6.1f%%\n", label, 100*out[0], 100*out[1], 100*out[2])
	return out
}

// runAblationSplit compares the function-group split with the
// backend-based split (§4.2's alternative).
func runAblationSplit(h *harness) {
	header("Ablation (§4.2): training-set split policy — accuracy per target")
	fmt.Printf("  %-28s %7s %7s %7s\n", "", "RISC-V", "RI5CY", "xCORE")
	a := h.ablationRun("function-group split", func(cfg *core.Config) {})
	b := h.ablationRun("backend-based split", func(cfg *core.Config) { cfg.SplitByBackend = true })
	fmt.Printf("  drop: %.1f / %.1f / %.1f points (paper: 26.2 / 25.2 / 11.1)\n",
		100*(a[0]-b[0]), 100*(a[1]-b[1]), 100*(a[2]-b[2]))
}

// runAblationModel compares the three architectures (§4.1.2's RNN and
// vanilla-BERT baselines).
func runAblationModel(h *harness) {
	header("Ablation (§4.1.2): model architecture — accuracy per target")
	fmt.Printf("  %-28s %7s %7s %7s\n", "", "RISC-V", "RI5CY", "xCORE")
	tr := h.ablationRun("transformer (CodeBE)", func(cfg *core.Config) {})
	gr := h.ablationRun("GRU seq2seq (RNN VEGA)", func(cfg *core.Config) {
		cfg.Arch = "gru"
		cfg.MaxSamples = 500 // the recurrent baseline trains far slower
		cfg.Pretrain = false
	})
	bt := h.ablationRun("BERT-style encoder-only", func(cfg *core.Config) { cfg.Arch = "bert" })
	fmt.Printf("  transformer lead over RNN:  %.1f / %.1f / %.1f points (paper: 35.3-77.7)\n",
		100*(tr[0]-gr[0]), 100*(tr[1]-gr[1]), 100*(tr[2]-gr[2]))
	fmt.Printf("  transformer lead over BERT: %.1f / %.1f / %.1f points (paper: 32.1-67.0)\n",
		100*(tr[0]-bt[0]), 100*(tr[1]-bt[1]), 100*(tr[2]-bt[2]))
}

// runAblationPretrain compares fine-tuning with and without the
// pre-training pass (the §4.1.6 control).
func runAblationPretrain(h *harness) {
	header("Ablation (§4.1.6): pre-training pass — accuracy per target")
	fmt.Printf("  %-28s %7s %7s %7s\n", "", "RISC-V", "RI5CY", "xCORE")
	with := h.ablationRun("with pre-training", func(cfg *core.Config) {})
	without := h.ablationRun("without pre-training", func(cfg *core.Config) { cfg.Pretrain = false })
	fmt.Printf("  pre-training contribution: %.1f / %.1f / %.1f points\n",
		100*(with[0]-without[0]), 100*(with[1]-without[1]), 100*(with[2]-without[2]))
}

// runFig6 prints the target-processor overview (Fig. 6's table).
func runFig6(h *harness) {
	header("Fig. 6: evaluation targets")
	fmt.Printf("%-8s %-10s %6s %8s %7s %s\n", "target", "class", "regs", "ptrbits", "fixups", "custom ISA")
	for _, tgt := range evalTargetNames() {
		t := corpus.FindTarget(tgt)
		class := map[string]string{"RISCV": "GPP", "RI5CY": "ULP", "XCore": "IoT"}[tgt]
		var custom []string
		if t.HasHardwareLoop {
			custom = append(custom, "hardware loop")
		}
		if t.HasSIMD {
			custom = append(custom, "SIMD")
		}
		if t.HasRealtime {
			custom = append(custom, "real-time I/O + thread sync")
		}
		if !t.HasDisassembler {
			custom = append(custom, "no disassembler module")
		}
		if len(custom) == 0 {
			custom = append(custom, "-")
		}
		fmt.Printf("%-8s %-10s %6d %8d %7d %s\n",
			paperName(tgt), class, t.NumRegs, t.PtrBits, len(t.FixupKinds), strings.Join(custom, ", "))
	}
}
