# Tier-1 verification targets. `make check` is what CI runs: lint (vet +
# gofmt) plus the full test suite under the race detector, which
# exercises the concurrent training/cancellation paths and Stage 3's
# generation worker pool.

GO ?= go

.PHONY: check lint vet fmt-check cross-build test test-race obs-race kernels-race \
	attn-race quant-race stage1-race corpus-race serve-race repair-race \
	build bench bench-stage1 bench-stage2 bench-stage3 bench-repair

check: lint obs-race kernels-race attn-race quant-race stage1-race corpus-race serve-race repair-race test-race

build:
	$(GO) build ./...

lint: vet fmt-check cross-build

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail the build when any exist.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The assembly kernels are amd64-only; every other architecture builds
# the pure-Go paths against stubs. Building for arm64 catches an asm
# entry point added without its stub.
cross-build:
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -timeout 45m ./...

# Fast, focused race check on the observability layer: its counters and
# span emission are exercised from every worker goroutine, so this suite
# fails first (and in seconds) when an instrument loses atomicity.
obs-race:
	$(GO) test -race ./internal/obs

# Kernel differential suite under the race detector: the blocked/SIMD
# kernels against their naive references across worker counts, plus the
# batched-vs-per-sample training differentials, the tape-backward
# references and the pinned epoch losses. Fails fast when a kernel
# change breaks bit-identity or the parallel dispatch races.
kernels-race:
	$(GO) test -race ./internal/tensor
	$(GO) test -race -run 'LossBatch|FitWorkersDeterministic|Kernel|TapeBackward|FitLossesPinned' ./internal/model

# Attention-kernel suite under the race detector: the head-contiguous
# score/weighted-sum kernels against their naive and strided (full-width
# dotColumns/MulRowInto) references in tensor, plus the model layer's
# layout differentials — grow-at-MaxSeq boundary, cloneKV headroom under
# mid-growth beam branching, and decode bit-identity across kernel
# worker counts. Fails fast when a layout or kernel change breaks the
# bit-exact seam.
attn-race:
	$(GO) test -race -run 'Attn' ./internal/tensor
	$(GO) test -race -run 'KVGrow|CloneKV|CloneQuantized|KernelWorkerBit|IncrementalDecoderClone|CachedMatchesUncached' ./internal/model

# Int8 quantization suite under the race detector: the quantize/int8
# matmul differentials and their worker-count bit-identity in tensor,
# plus the model layer's quantized-view build (sync.Once under
# concurrent decoders) and batched-encoder worker differentials. Fails
# fast when the scale-once contract or the lazy view construction races.
quant-race:
	$(GO) test -race -run 'Quant|Int8|Scratch' ./internal/tensor
	$(GO) test -race -run 'Quant|EncodeBatch|DecoderFromMemory' ./internal/model

# Stage 1 concurrency suite under the race detector: the per-group
# artifact cache round-trips, the worker-count differential
# (Stage1Workers 1/3/8 must serialize byte-identically), and the
# incremental-invalidation differential (one edited target misses
# exactly one group at every worker count) — all of which drive the
# templatization pool, the per-group cache, and the shared
# extractor/source-tree memos from many goroutines.
stage1-race:
	$(GO) test -race ./internal/s1cache
	$(GO) test -race -run 'Stage1Workers|Stage1Cache|Stage1Incremental|StreamingProvider' ./internal/core

# Corpus-scale race check: the 50+-target extended fleet built and
# self-evaluated under the race detector (streaming providers memoize
# reference backends behind a mutex; this drives that path), plus the
# lazily built function-name index hit from concurrent lookups.
corpus-race:
	$(GO) test -race -run 'ExtendedFleet|FamilyTargets' ./internal/eval
	$(GO) test -race -run 'FuncByName' ./internal/corpus

# Serving-layer race suite: the bounded scheduler, snapshot refcount
# swap, and HTTP handlers driven concurrently — including the soak test
# (queue cap 2, mid-run hot swap, armed serve-handler-panic fault) that
# enforces the {200, 200-degraded, 429, 504} response contract.
serve-race:
	$(GO) test -race ./internal/serve

# Verify-and-repair race suite: the CEGAR engine and oracle (shared by
# every generation worker) plus the interp↔sim differential fuzz, whose
# seeds run across goroutines precisely so the race detector watches the
# compiler tables and both executors being shared.
repair-race:
	$(GO) test -race ./internal/repair
	$(GO) test -race -run 'DifferentialInterpVsSim' ./internal/sim

# Stage-timing benchmarks, each teed through cmd/benchjson so the run
# leaves a machine-readable artifact beside the log.
bench: bench-stage1 bench-stage2 bench-stage3 bench-repair

# One invocation covers all three Stage 1 variants: cold (full
# templatization + feature mining), warm (every group a per-group cache
# hit), and warm-one-target-dirty (one edited implementation; exactly
# one group rebuilds). benchjson derives speedup_vs_cold for both warm
# rows in BENCH_stage1.json.
bench-stage1:
	$(GO) test -run '^$$' -bench 'Stage1Templatization' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_stage1.json

bench-stage2:
	$(GO) test -run '^$$' -bench 'Fig6TrainingTime' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_stage2.json

bench-stage3:
	$(GO) test -run '^$$' -bench 'Fig7InferenceTime' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_stage3.json

# Verify-and-repair loop: plain vs verified pass@1 and the repair rate,
# recorded as BENCH_repair.json (the correctness-loop delta artifact).
bench-repair:
	$(GO) test -run '^$$' -bench 'RepairLoop' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_repair.json
