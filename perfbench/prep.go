package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/serve"
)

// evalTargets are the paper's three held-out targets.
var evalTargets = []string{"RISCV", "RI5CY", "XCore"}

// benchConfig is the bench-fixture budget the repository's go test
// benchmarks train at (bench_test.go sharedFixture).
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 6
	cfg.MaxSamples = 1500
	cfg.PretrainEpochs = 1
	cfg.VerifyCap = 120
	return cfg
}

// timedProvider is a corpus.Provider decorator that times the corpus
// layer from outside: group rendering for Stage 1 and reference backends
// for eval and repair.
type timedProvider struct {
	corpus.Provider
	mu          sync.Mutex
	groupSource time.Duration
	groupCalls  int
	refBackend  time.Duration
}

func (t *timedProvider) GroupSource(fn corpus.InterfaceFunc) *corpus.GroupSource {
	start := time.Now()
	gs := t.Provider.GroupSource(fn)
	d := time.Since(start)
	t.mu.Lock()
	t.groupSource += d
	t.groupCalls++
	t.mu.Unlock()
	return gs
}

func (t *timedProvider) ReferenceBackend(name string) (*corpus.Backend, error) {
	start := time.Now()
	b, err := t.Provider.ReferenceBackend(name)
	d := time.Since(start)
	t.mu.Lock()
	t.refBackend += d
	t.mu.Unlock()
	return b, err
}

// snapshot returns the accumulated totals and resets them.
func (t *timedProvider) snapshot() (groupSource time.Duration, groupCalls int, refBackend time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	groupSource, groupCalls, refBackend = t.groupSource, t.groupCalls, t.refBackend
	t.groupSource, t.groupCalls, t.refBackend = 0, 0, 0
	return
}

// standardPipeline builds the standard corpus and runs Stage 1 over it.
// A non-nil tp is installed between the corpus and the pipeline.
func standardPipeline(cfg core.Config, tp *timedProvider) (*core.Pipeline, error) {
	c, err := corpus.Build()
	if err != nil {
		return nil, err
	}
	if tp == nil {
		return core.NewFromProvider(c, cfg)
	}
	tp.Provider = c
	return core.NewFromProvider(tp, cfg)
}

// prepared is the per-commit state the retarget and serve-mix workloads
// start from: a checkpoint trained at the bench-fixture budget and the
// offline float32 outputs their checks compare against. Both are built
// by the commit under test, once per checkout, and keyed by a hash of
// its sources so that state from another commit is never reused.
type prepared struct {
	checkpoint string
	// refs maps refKey(target, verify) to function name to the
	// function's serve wire form, JSON-encoded.
	refs map[string]map[string]string
}

func refKey(target string, verify bool) string {
	if verify {
		return target + "+verify"
	}
	return target
}

// prepare returns the prepared state for this checkout. When it does not
// exist yet, a child process of this binary builds it, so that training
// leaves no trace in this run's memory, CPU and GC figures.
func prepare(r *runner) (*prepared, error) {
	dir, err := prepDir(r)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "refs.json"))
	if errors.Is(err, fs.ErrNotExist) {
		start := time.Now()
		if err := prepareInChild(r); err != nil {
			return nil, err
		}
		r.note("prepared checkpoint and references in %.1f s", time.Since(start).Seconds())
		raw, err = os.ReadFile(filepath.Join(dir, "refs.json"))
	}
	if err != nil {
		return nil, err
	}
	pr := &prepared{checkpoint: filepath.Join(dir, "model.ckpt")}
	if err := json.Unmarshal(raw, &pr.refs); err != nil {
		return nil, fmt.Errorf("prepared references: %w", err)
	}
	return pr, nil
}

// prepareInChild runs buildPrepared in a child process of this binary and
// waits for it.
func prepareInChild(r *runner) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--prepare", "--root", r.root, "--state", r.state)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	return nil
}

// prepDir is where this checkout's prepared state lives.
func prepDir(r *runner) (string, error) {
	fp, err := sourceFingerprint(r.root)
	if err != nil {
		return "", err
	}
	return filepath.Join(r.state, "prep", fp[:24]), nil
}

// buildPrepared trains the checkpoint and generates the reference
// outputs, then moves them into place.
func buildPrepared(r *runner) error {
	dir, err := prepDir(r)
	if err != nil {
		return err
	}
	// The phase times make the cold-run ledger: one full run of corpus,
	// Stage 1, training and Stage 3 at the bench-fixture budget.
	start := time.Now()
	p, err := standardPipeline(benchConfig(), nil)
	if err != nil {
		return err
	}
	stage1 := time.Now()
	res, err := p.Train()
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	trained := time.Now()
	refs := map[string]map[string]string{}
	var verifySecs float64
	for _, verify := range []bool{false, true} {
		for _, t := range evalTargets {
			start := time.Now()
			b := p.GenerateBackendOptions(context.Background(), t, core.GenOptions{Verify: verify})
			if verify {
				verifySecs += time.Since(start).Seconds()
			}
			refs[refKey(t, verify)] = wireFunctions(b)
		}
	}
	fmt.Fprintf(os.Stderr, "cold run: corpus+stage1 %.3f s, train %.3f s (%d samples, verify EM %.4f), "+
		"stage3 float32 x3 %.3f s, stage3 verify x3 %.3f s\n",
		stage1.Sub(start).Seconds(), trained.Sub(stage1).Seconds(), res.Samples, res.VerifyExactMatch,
		time.Since(trained).Seconds()-verifySecs, verifySecs)
	// Build in a temporary directory and rename it into place, so an
	// interrupted preparation never leaves a half-written state behind.
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "partial-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := p.Save(filepath.Join(tmp, "model.ckpt")); err != nil {
		return err
	}
	raw, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "refs.json"), raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// sourceFingerprint hashes every Go, assembly and module file of the
// checkout outside the build directory, in path order.
func sourceFingerprint(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".go", ".s", ".mod", ".sum":
		default:
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("fingerprint sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// wireFunction converts a generated function to the serve handler's wire
// form, field for field as the handler does.
func wireFunction(f *generate.Function) serve.FunctionJSON {
	fj := serve.FunctionJSON{
		Name:       f.Name,
		Module:     f.Module,
		Confidence: f.Confidence(),
		Failed:     f.Failed(),
		Error:      f.Err,
		Statements: make([]serve.StatementJSON, 0, len(f.Statements)),
	}
	if f.Verify != nil {
		fj.Verify = f.Verify.Status.String()
		fj.RepairRounds = f.Verify.Rounds
		fj.Counterexample = f.Verify.Counterexample
	}
	for _, st := range f.Statements {
		fj.Statements = append(fj.Statements, serve.StatementJSON{
			Row: st.Row, Text: st.Text, Absent: st.Absent,
			Score: st.Score, Formula: st.Formula,
		})
	}
	return fj
}

// wireFunctions renders every function of a backend, keyed by name.
func wireFunctions(b *generate.Backend) map[string]string {
	out := make(map[string]string, len(b.Functions))
	for _, f := range b.Functions {
		out[f.Name] = wireJSON(wireFunction(f))
	}
	return out
}

// wireJSON encodes a wire-form value for byte comparison.
func wireJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error() // never equal to a real encoding
	}
	return string(raw)
}
