package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/serve"
)

func testRunner() *runner {
	return &runner{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func sampleBackend() *generate.Backend {
	return &generate.Backend{Target: "RISCV", Functions: []*generate.Function{
		{Name: "getRelocType", Module: "EMI", Target: "RISCV", Statements: []generate.Statement{
			{Row: 0, Text: "unsigned Kind = Fixup.getTargetKind();", Score: 0.93, Formula: 0.5},
			{Row: 1, Absent: true, Score: 0.12},
		}},
		{Name: "getStackAlignment", Module: "REG", Target: "RISCV", Statements: []generate.Statement{
			{Row: 0, Text: "return 16;", Score: 0.99, Formula: 1},
		}},
	}}
}

var sampleModules = map[string]string{"getRelocType": "EMI", "getStackAlignment": "REG"}

// TestCheckBackendFires plants wrong retarget outputs and requires the
// byte-identity check and the failure accounting to catch each.
func TestCheckBackendFires(t *testing.T) {
	ref := wireFunctions(sampleBackend())

	r := testRunner()
	checkBackend(r, sampleBackend(), 2, ref)
	if len(r.problems) != 0 || r.attempted != 2 || r.failed != 0 {
		t.Fatalf("clean backend: problems %v, attempted %d, failed %d", r.problems, r.attempted, r.failed)
	}

	plants := map[string]func(b *generate.Backend){
		"statement text": func(b *generate.Backend) { b.Functions[0].Statements[0].Text = "unsigned Kind = 0;" },
		"score bits":     func(b *generate.Backend) { b.Functions[1].Statements[0].Score = math.Nextafter(0.99, 1) },
		"absent flag":    func(b *generate.Backend) { b.Functions[0].Statements[1].Absent = false },
		"missing function": func(b *generate.Backend) {
			b.Functions = b.Functions[:1]
			b.Partial = true
		},
	}
	for name, plant := range plants {
		b := sampleBackend()
		plant(b)
		r := testRunner()
		checkBackend(r, b, 2, ref)
		if len(r.problems) == 0 {
			t.Errorf("%s: planted difference not caught", name)
		}
	}

	b := sampleBackend()
	b.Recovered = 1
	b.Functions[1] = generate.FailedFunction("getStackAlignment", "REG", "RISCV", errors.New("planted panic"))
	r = testRunner()
	checkBackend(r, b, 2, ref)
	if r.failed != 1 || len(r.problems) == 0 {
		t.Errorf("recovered function: failed %d, problems %v", r.failed, r.problems)
	}
}

func servedResponse(t *testing.T, req serve.GenerateRequest, status int, resp serve.GenerateResponse) served {
	t.Helper()
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return served{req: req, status: status, body: body}
}

// TestCheckServedFires plants wrong serve-mix responses and requires each
// to count as a failed request and fail the run.
func TestCheckServedFires(t *testing.T) {
	b := sampleBackend()
	pr := &prepared{refs: map[string]map[string]string{
		"RISCV":        wireFunctions(b),
		"RISCV+verify": wireFunctions(b),
	}}
	fnReq := serve.GenerateRequest{Target: "RISCV", Function: "getRelocType", Verify: true}
	good := func() serve.GenerateResponse {
		return serve.GenerateResponse{Target: "RISCV", Verified: 1,
			Functions: []serve.FunctionJSON{wireFunction(sampleBackend().Functions[0])}}
	}

	r := testRunner()
	verified, inVerify := checkServed(r, &servePhase{done: []served{servedResponse(t, fnReq, http.StatusOK, good())}}, pr, sampleModules)
	if len(r.problems) != 0 || r.failed != 0 || verified != 1 || inVerify != 1 {
		t.Fatalf("clean response: problems %v, failed %d, verified %d/%d", r.problems, r.failed, verified, inVerify)
	}

	plants := map[string]served{
		"statement text": func() served {
			resp := good()
			resp.Functions[0].Statements[0].Text = "unsigned Kind = 0;"
			return servedResponse(t, fnReq, http.StatusOK, resp)
		}(),
		"degraded": func() served {
			resp := good()
			resp.Degraded = true
			return servedResponse(t, fnReq, http.StatusOK, resp)
		}(),
		"out of scope": func() served {
			resp := good()
			resp.Functions[0] = wireFunction(sampleBackend().Functions[1])
			return servedResponse(t, fnReq, http.StatusOK, resp)
		}(),
		"module short a function": servedResponse(t,
			serve.GenerateRequest{Target: "RISCV", Module: "REG"}, http.StatusOK, serve.GenerateResponse{}),
		"rejected":   {req: fnReq, status: http.StatusTooManyRequests, body: []byte(`{"error":"queue full"}`)},
		"unreadable": {req: fnReq, status: http.StatusOK, body: []byte(`{"functions":`)},
	}
	for name, s := range plants {
		r := testRunner()
		checkServed(r, &servePhase{done: []served{s}}, pr, sampleModules)
		if r.failed != 1 || len(r.problems) == 0 {
			t.Errorf("%s: failed %d, problems %v", name, r.failed, r.problems)
		}
	}
}

// TestCheckEditRebuildFires builds Stage 1 for real: an edited fleet's
// cold build must pass the check against itself, and the unedited
// fleet's state, planted in place of the cold build, must fail it.
func TestCheckEditRebuildFires(t *testing.T) {
	c, err := corpus.Build()
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := corpus.FuncByName("getStackAlignment")
	if !ok {
		t.Fatal("no getStackAlignment")
	}
	edited := *corpus.FindTarget("ARM")
	edited.StackAlign = 64
	pr := &corpus.Override{Provider: c, FuncName: fn.Name, Target: "ARM", Source: fn.Gen(&edited)}
	cfg := core.DefaultConfig()
	cfg.Stage1Cache = t.TempDir()
	if _, err := core.NewFromProvider(c, cfg); err != nil {
		t.Fatal(err)
	}
	incr, err := core.NewFromProvider(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stage1Cache = ""
	cold, err := core.NewFromProvider(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unedited, err := core.NewFromProvider(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner()
	checkEditRebuild(r, stage1Fingerprint(incr), stage1Fingerprint(cold))
	if len(r.problems) != 0 {
		t.Fatalf("incremental rebuild flagged against its own cold build: %v", r.problems)
	}
	checkEditRebuild(r, stage1Fingerprint(incr), stage1Fingerprint(unedited))
	if len(r.problems) == 0 {
		t.Fatal("planted unedited state not caught")
	}
}

// TestCheckLossesFires plants non-finite losses.
func TestCheckLossesFires(t *testing.T) {
	r := testRunner()
	checkLosses(r, &core.TrainResult{PretrainLosses: []float64{2.5}, EpochLosses: []float64{1.2, 0.7}})
	if len(r.problems) != 0 {
		t.Fatalf("finite losses flagged: %v", r.problems)
	}
	for name, res := range map[string]*core.TrainResult{
		"NaN fine-tune": {EpochLosses: []float64{1.2, math.NaN()}},
		"Inf pretrain":  {PretrainLosses: []float64{math.Inf(1)}, EpochLosses: []float64{1}},
		"no epochs":     {},
	} {
		r := testRunner()
		checkLosses(r, res)
		if len(r.problems) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

// TestStageSharesCheckFires requires the traced run to fail when the stage
// timings leave more than 2% of the wall time unaccounted for.
func TestStageSharesCheckFires(t *testing.T) {
	r := testRunner()
	phaseLayers(r, memNow(), 1, 1, 99.5, 100)
	if len(r.problems) != 0 {
		t.Fatalf("99.5%% coverage flagged: %v", r.problems)
	}
	phaseLayers(r, memNow(), 1, 1, 95, 100)
	if len(r.problems) == 0 {
		t.Fatal("95% coverage not caught")
	}
}

// TestRequestMixIsSeededAndStratified pins the serve-mix input: the seed
// alone decides the sequence, and every period has the stated shares.
func TestRequestMixIsSeededAndStratified(t *testing.T) {
	var funcs []string
	for _, f := range corpus.AllFuncs() {
		funcs = append(funcs, f.Name)
	}
	a, b, other := requestMix(7, funcs), requestMix(7, funcs), requestMix(8, funcs)
	if wireJSON(a[:700]) != wireJSON(b[:700]) {
		t.Fatal("same seed, different request sequences")
	}
	if wireJSON(a[:700]) == wireJSON(other[:700]) {
		t.Fatal("different seeds, same request sequence")
	}
	for p := 0; p < 10; p++ {
		module, verify, quantize := 0, 0, 0
		targets := map[string]int{}
		for _, q := range a[p*70 : (p+1)*70] {
			if q.Module != "" {
				module++
			}
			if q.Verify {
				verify++
			}
			if q.Quantize {
				quantize++
			}
			targets[q.Target]++
		}
		if module != 21 || verify < 22 || verify > 25 || quantize != 35 || targets["RISCV"] < 23 || targets["XCore"] < 23 {
			t.Fatalf("period %d: %d module, %d verify, %d quantize, targets %v", p, module, verify, quantize, targets)
		}
	}
}

// TestPickEditIsSeededAndReal pins the fleet-ingest input: the seed
// alone decides the edit, and the edit really changes one source.
func TestPickEditIsSeededAndReal(t *testing.T) {
	specs, err := corpus.Fleet("extended")
	if err != nil {
		t.Fatal(err)
	}
	st := corpus.NewStream(specs)
	pick := func(seed int64) *corpus.Override {
		fs := &fleetState{specs: specs, cur: st, rng: rand.New(rand.NewSource(seed))}
		e, err := pickEdit(fs)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := pick(3), pick(3)
	if a.FuncName != b.FuncName || a.Target != b.Target || a.Source != b.Source {
		t.Fatal("same seed, different edits")
	}
	fn, _ := corpus.FuncByName(a.FuncName)
	gs := st.GroupSource(fn)
	for i, tg := range gs.Targets {
		if tg == a.Target && gs.Sources[i] == a.Source {
			t.Fatal("edit leaves the source unchanged")
		}
	}
	if !slices.Contains(a.GroupSource(fn).Sources, a.Source) {
		t.Fatal("override does not carry the edited source")
	}
}
