# wstrust build & CI entry points. `make ci` is the tier-1 gate: gofmt,
# vet, lint, build, and full tests in one command; `make race` adds the race
# detector (the parallel-runner determinism test sizes itself down
# automatically).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt vet lint lint-json test race cover fuzz-smoke chaos-smoke serve-smoke bench bench-test bench-suite bench-json bench-incremental bench-scenario bench-gate scenario-golden ci

# Aggregate statement-coverage floor for the packages the fault layer,
# the mechanism test harness, the scenario engine, the replication layer
# and the registry are responsible for.
COVER_PKGS = ./internal/trust/... ./internal/fault ./internal/p2p ./internal/scenario ./internal/replica ./internal/registry
COVER_MIN  = 75.0

all: ci

build:
	$(GO) build ./...

# Formatting gate: fails, naming the files, when gofmt would change any
# tracked Go file.
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# bench/ is its own Go module, so `go vet ./...` does not reach it; it
# imports internal packages, and vetting it here makes a change that
# breaks the benchmark's build fail `make ci`, not only `make bench-test`.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# wsxlint checks the repo's determinism & invariant rules (see DESIGN.md
# §"Determinism invariants"): no ambient randomness or wall-clock reads
# outside simclock, no unsorted map iteration in the experiment harness,
# guarded fields locked, no dropped errors on persistence paths.
lint:
	$(GO) run ./cmd/wsxlint ./...

# Machine-readable lint pass: one JSON object per finding (NDJSON),
# consumed in CI through .github/wsxlint.json so findings surface as PR
# annotations. Locally `make lint` stays the human-readable entry point.
lint-json:
	$(GO) run ./cmd/wsxlint -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Coverage gate: the trust mechanisms, the fault layer, and the p2p
# substrate must keep aggregate statement coverage at or above COVER_MIN —
# the floor the differential/hammer/fuzz layer added in PR 4 establishes.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "aggregate coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% below the $(COVER_MIN)% floor"; exit 1; }

# Fuzz smoke: a short budget per target so regressions in the routing and
# backoff invariants surface in CI without stalling it. Each -fuzz run
# needs its own invocation (go test allows one fuzz target per run).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/p2p -run FuzzPGridChurn -fuzz FuzzPGridChurn -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run FuzzFaultPolicy -fuzz FuzzFaultPolicy -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soa -run FuzzDecodeEnvelope -fuzz FuzzDecodeEnvelope -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soa -run FuzzUnmarshalWSDL -fuzz FuzzUnmarshalWSDL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trust/eigentrust -run FuzzWarmStartResidual -fuzz FuzzWarmStartResidual -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trust/cf -run FuzzMatchesReference -fuzz FuzzMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run FuzzScenarioParse -fuzz FuzzScenarioParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/registry -run FuzzWALRecover -fuzz FuzzWALRecover -fuzztime $(FUZZTIME)
	$(GO) test ./internal/registry -run FuzzDecodeRecord -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)

# Deterministic crash/corruption chaos suite under the race detector:
# seeded primary kill mid-commit with promotion and fenced rejoin, seeded
# partition-then-promote, torn/bit-flipped WAL and snapshot images, and a
# primary restarting on a rotted snapshot while a follower lags behind its
# log — asserting every acked submit survives on the surviving majority
# and the converged cluster exports byte-identical registries.
chaos-smoke:
	$(GO) test ./internal/chaos -race -count=1

# End-to-end daemon smoke: boot wsxd on an ephemeral port with a fresh
# data dir, submit one feedback, rank, drain, and assert a clean exit 0 —
# the full startup → serve → graceful-drain lifecycle in a few seconds.
serve-smoke:
	./scripts/serve_smoke.sh

# Package micro-benchmarks with allocation counts (Engine.Rank vs
# RankSession, Scorer, mechanism benches).
bench:
	$(GO) test -bench . -benchmem ./internal/...

# The benchmark's own checks. bench/ is a separate Go module, so the root
# `go test ./...` never runs them: vet the benchmark and run its tests,
# including TestSmoke, which builds wsxd and wsxsim from this tree and
# drives every workload briefly (about 10 s).
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -count=1 ./...

# Whole-suite wall-clock: sequential vs parallel (speedup = seq/parallel).
# The allocation counts it logs beside them are exact from run to run,
# where the wall times are noisy on a shared host.
bench-suite:
	$(GO) test -bench 'BenchmarkSuite' -benchtime 1x -benchmem .

# The benchmark ledger, BENCH_LEDGER.json, keeps one entry per job set and
# machine fingerprint (go version, GOOS/GOARCH, CPU count), so the perf
# claims in README.md and EXPERIMENTS.md stay auditable. Each target below
# reruns its set and refreshes its entry for this machine; entries
# measured elsewhere stay as history.
#
# The default job set: suite wall-clock, the C4 critical path, the cf
# microbenchmarks and the registry submit paths (the one ordered log and
# its group-commit WAL, against the single-mutex baseline; the benchmark
# names still say "Sharded" to match the recorded rows) at GOMAXPROCS
# 1/2/4.
bench-json:
	$(GO) run ./cmd/wsxbench

# The incremental-trust population sweep (warm-start submit+score at pop
# 1k/10k/100k vs exact mode's cold pass, which reruns every power-iteration
# round from the teleport vector per update).
bench-incremental:
	$(GO) run ./cmd/wsxbench -jobs incremental

# The struct-of-arrays scenario engine at benchmark scale (the
# million-consumer scenario, parallel and single-worker, plus the
# golden-sized cocktail).
bench-scenario:
	$(GO) run ./cmd/wsxbench -jobs scenario

# The golden scenario-regression library: every committed scenario under
# scenarios/ replayed sequentially and at -parallel 4 against its
# committed sha256 digest. After an intended engine change, regenerate
# with `go test ./internal/scenario -run TestScenarioGoldenDigests -update`.
scenario-golden:
	$(GO) test ./internal/scenario -run 'TestScenarioLibraryShape|TestScenarioGoldenDigests' -v

# Blocking hot-path regression gate: the cf microbenchmarks and the
# incremental-trust warm path against their ledger baselines. Each set
# runs twice on this machine, the largest per-row delta between the two
# runs is the noise floor, and the gate fails on a slowdown beyond
# max(10%, 2 x floor), or when a set compares no row at all.
bench-gate:
	$(GO) run ./cmd/wsxbench gate

ci: fmt vet lint lint-json build test cover
