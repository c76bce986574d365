# RegHD — common workflows. Pure Go; no external dependencies.

GO ?= go

.PHONY: all build vet test race race-quick cover bench bench-quick bench-json bench-train-json bench-check experiments fuzz fuzz-smoke chaos replica-smoke train-smoke examples serve-demo lint lint-sarif metrics-lint bench-metrics clean

# Tier-1 flow: build, vet, tests, the full race-detector pass, and the
# static-analysis suite, so the concurrency contracts (Snapshot serving,
# pooled Predict scratch) and the op-accounting contract can never regress
# silently.
all: build vet test race lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race pass over just the concurrency-bearing packages (fast iteration).
race-quick:
	$(GO) test -race ./internal/core/ ./internal/encoding/ ./internal/hdc/ ./internal/obs/ .

cover:
	$(GO) test -cover ./...

# The full testing.B harness (one benchmark per paper table/figure plus
# kernel micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Only the kernel micro-benchmarks (fast).
bench-quick:
	$(GO) test -bench='Encode|Hamming|Cosine|DotBinary|Predict' -benchmem .

# Kernel before/after record: runs the paired kernel benchmarks
# (bench_kernels_test.go) and writes BENCH_kernels.json with ns/op plus
# baseline→optimized speedups. See docs/PERFORMANCE.md.
bench-json:
	{ $(GO) test -run xxx -bench 'Project$$|Encode$$|SimilarityK$$|EnginePredict$$' -benchtime=1s -count=3 . ; \
	  $(GO) test -run xxx -bench 'EncodeBatch$$' -benchtime=1s -count=3 ./internal/core/ ; } \
		| $(GO) run ./cmd/reghd-benchjson -o BENCH_kernels.json

# Sharded-training before/after record: runs the FitParallel serial-vs-N
# worker pairs (bench_train_test.go) and writes BENCH_train.json. The w2/w4
# speedups only exceed 1.0x when GOMAXPROCS >= workers; the context block
# records gomaxprocs and nproc so the JSON is honest about the cores it had. See
# docs/TRAINING.md.
bench-train-json:
	$(GO) test -run xxx -bench 'FitParallel$$' -benchtime=2x -count=3 . \
		| $(GO) run ./cmd/reghd-benchjson -tolerance 0.95 -o BENCH_train.json

# Regression gate: rerun the kernel pairs this repo once shipped slow
# (k-way similarity, and the training batch encode in internal/core) and
# fail if any optimized lane measures slower than its baseline, plus the
# 1-worker FitParallel parity pair at a 0.95 tolerance (orchestration
# overhead must stay within noise; multi-worker pairs are excluded because
# on a 1-core runner they sit at parity by design — see docs/TRAINING.md).
# Each lane keeps the fastest of 5 runs (1 s each for the kernels), so one
# noisy run on a shared host cannot sink a sub-microsecond pair.
bench-check:
	$(GO) test -run xxx -bench 'SimilarityK$$' -benchtime=1s -count=5 . \
		| $(GO) run ./cmd/reghd-benchjson -fail-on-regression -o -
	$(GO) test -run xxx -bench 'EncodeBatch$$' -benchtime=1s -count=5 ./internal/core/ \
		| $(GO) run ./cmd/reghd-benchjson -fail-on-regression -o -
	$(GO) test -run xxx -bench 'FitParallel/.*_w1$$' -benchtime=2x -count=5 . \
		| $(GO) run ./cmd/reghd-benchjson -fail-on-regression -tolerance 0.95 -o -

# Metrics-off vs metrics-on serving throughput (the < 5% overhead check).
bench-metrics:
	$(GO) test -run xxx -bench 'EnginePredictMetrics' -count=5 .

# Observability demo server: trains on a synthetic dataset, generates
# reader/writer traffic, and exposes /metrics + /debug/pprof/.
# See docs/OBSERVABILITY.md for a guided session against it.
serve-demo:
	$(GO) run ./cmd/reghd-serve

# The in-tree static-analysis suite (cmd/reghd-lint): nine go/ast+go/types
# analyzers enforcing Snapshot immutability, pooled-scratch hygiene, kernel
# op-accounting, atomic-access discipline, the float-equality ban,
# merge/serialize determinism, request-path context propagation, goroutine
# shutdown ties, and error-handling discipline. Lints every package,
# including the lint package and command themselves, then audits the
# suppression directives so a //lint:ignore that no longer suppresses
# anything fails the build. See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/reghd-lint ./...
	$(GO) run ./cmd/reghd-lint -audit-ignores ./...

# SARIF 2.1.0 log for GitHub code scanning (the CI lint-sarif job uploads
# this; findings become PR annotations instead of log lines).
lint-sarif:
	$(GO) run ./cmd/reghd-lint -format sarif ./... > reghd-lint.sarif

# Check docs/OBSERVABILITY.md and the exported metric structs against each
# other: every metric in code must be documented, and vice versa.
metrics-lint:
	$(GO) test -run TestMetricsDocumented -count=1 ./internal/obs/

# Regenerate every paper table and figure.
experiments:
	$(GO) run ./cmd/reghd-bench -exp all

fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/dataset/
	$(GO) test -fuzz=FuzzPackUnpack -fuzztime=10s ./internal/hdc/

# Quick CI-friendly fuzz pass: the differential sign-projection target (the
# bit-packed encode path must keep agreeing with the reference form), then
# the two framed decoders — checkpoints (FuzzLoad, seeded with the golden
# files in internal/core/testdata/) and replication deltas (FuzzDeltaWire):
# arbitrary bytes must fail typed, never panic, and anything accepted must
# re-encode to a fixed point — and the /predict body decoder (FuzzDecodeRow):
# arbitrary bodies must fail with a typed 400/413, or decode to a row that
# round-trips bit for bit.
fuzz-smoke:
	$(GO) test -fuzz=FuzzSignProject -fuzztime=20s ./internal/hdc/
	$(GO) test -run '^$$' -fuzz='^FuzzLoad$$' -fuzztime=20s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzDeltaWire$$' -fuzztime=20s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeRow$$' -fuzztime=10s ./internal/httpx/

# Fault-injection chaos pass (docs/ROBUSTNESS.md): the serving-hardening
# stress tests under the race detector — readers hammering an engine whose
# writer fails mid-stream, panics from poisoned state, admission shedding —
# plus the fault-injector suite and a short fuzz of the bit-flip
# self-inverse contract the transient fault mode depends on.
chaos:
	$(GO) test -race -count=1 -run 'TestEngineChaos|TestEnginePanicContainment|TestEngineDegradedMode|TestEngineAdmissionGate|TestEngineMetricsErrors' .
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -fuzz=FuzzBitFlip -fuzztime=15s ./internal/fault/

# Replicated-serving smoke (docs/REPLICATION.md): three reghd-replica
# processes exchanging deltas over HTTP through seeded chaos (10% drop
# plus a 2s partition window on one replica), asserting every replica
# folds all rounds with a Float64bits-identical state fingerprint.
replica-smoke:
	sh ./scripts/replica_smoke.sh

# Sharded-training quality smoke (docs/TRAINING.md): train reghd-train on
# the synthetic airfoil task sequentially and with 4 workers, and fail if
# the parallel test MSE drifts beyond tolerance of the sequential run —
# the end-to-end guard on the bundling-merge math.
train-smoke:
	sh ./scripts/train_scale_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/powerplant
	$(GO) run ./examples/edge
	$(GO) run ./examples/robustness
	$(GO) run ./examples/streaming
	$(GO) run ./examples/serving
	$(GO) run ./examples/forecast
	$(GO) run ./examples/classify
	$(GO) run ./examples/rlcontrol

clean:
	$(GO) clean ./...
