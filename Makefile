# Tier-1 verification targets. `make check` is what CI runs: lint (vet +
# gofmt); the full test suite under the race detector, which exercises
# the concurrent training/cancellation paths and Stage 3's generation
# worker pool; the perfbench module's tests; one iteration of the Stage 1
# benchmarks; and a short run of every native fuzz target.

GO ?= go

.PHONY: check lint vet fmt-check cross-build test test-race bench-smoke \
	fuzz-smoke build bench bench-stage1 bench-repair

check: lint test-race bench-smoke fuzz-smoke

build:
	$(GO) build ./...

lint: vet fmt-check cross-build

# perfbench/ is its own Go module, so `./...` at the root never compiles
# it; vetting it there catches model/core API changes that would break
# the benchmark.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# gofmt -l lists unformatted files; fail the build when any exist.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The assembly kernels are amd64-only; every other architecture builds
# the pure-Go paths against stubs. Building for arm64 catches an asm
# entry point added without its stub.
cross-build:
	GOARCH=arm64 $(GO) build ./...

# perfbench/ is its own module (see vet); its tests check that the
# benchmark's correctness checks fire, so both test targets run them.
# Both also rerun the exact-math differential tests at GOAMD64=v3: the
# vector exp/tanh replicas assume Go rounds x*y+z twice on amd64 (in
# math.Tanh and in the GELU formula alike), and a toolchain that fused it
# into one FMA at v3 would break that.
test:
	$(GO) test ./...
	GOAMD64=v3 $(GO) test -run '$(EXACT_TESTS)' ./internal/tensor
	cd perfbench && $(GO) test .

test-race:
	$(GO) test -race -timeout 45m ./...
	GOAMD64=v3 $(GO) test -run '$(EXACT_TESTS)' ./internal/tensor
	cd perfbench && $(GO) test .

EXACT_TESTS = ^(TestExact|FuzzExpIntoAgainstMathExp$$|FuzzRowKernelsAgainstScalar$$|FuzzBlockKernelsAgainstScalar$$)

# A few seconds of coverage-guided fuzzing per native fuzz target (plain
# `go test` only replays their seed corpora). `-fuzz` takes one target
# per package run, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulAgainstNaive$$' -fuzztime 3s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzAttnScoresAgainstNaive$$' -fuzztime 3s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzExpIntoAgainstMathExp$$' -fuzztime 3s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzRowKernelsAgainstScalar$$' -fuzztime 3s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzBlockKernelsAgainstScalar$$' -fuzztime 3s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzSimCacheAgainstTokenLCS$$' -fuzztime 3s ./internal/align
	$(GO) test -run '^$$' -fuzz '^FuzzParseNormalize$$' -fuzztime 3s ./internal/cpp
	$(GO) test -run '^$$' -fuzz '^FuzzDiscoveryAgainstScan$$' -fuzztime 3s ./internal/feature
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGroupEntry$$' -fuzztime 3s ./internal/s1cache
	$(GO) test -run '^$$' -fuzz '^FuzzTapeAttentionAgainstComposed$$' -fuzztime 3s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeBatchAgainstTape$$' -fuzztime 3s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzPooledDecodersAgainstReference$$' -fuzztime 3s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzSplitUnitsAgainstReference$$' -fuzztime 3s ./internal/model

# One iteration of each Stage 1 benchmark, so a b.Fatal path cannot
# break unnoticed. BenchmarkRepairLoop trains a model, so it stays out.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Stage1Templatization' -benchtime 1x .

# The root benchmarks, each teed through cmd/benchjson so the run leaves
# a machine-readable artifact beside the log. Training and generation
# timing lives in perfbench/; the paper's numbers in cmd/vega-bench.
bench: bench-stage1 bench-repair

# One invocation covers all three Stage 1 variants: cold (full
# templatization + feature mining), warm (every group a per-group cache
# hit), and warm-one-target-dirty (one edited implementation; exactly
# one group rebuilds). Each runs three times; benchjson records the
# median with its range and derives speedup_vs_cold for both warm rows
# in BENCH_stage1.json.
bench-stage1:
	$(GO) test -run '^$$' -bench 'Stage1Templatization' -benchmem -benchtime 3x -count 3 . \
		| $(GO) run ./cmd/benchjson -out BENCH_stage1.json

# Verify-and-repair loop: plain vs verified pass@1 and the repair rate,
# recorded as BENCH_repair.json (the correctness-loop delta artifact).
bench-repair:
	$(GO) test -run '^$$' -bench 'RepairLoop' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_repair.json
