# Developer entry points. `make check` is the gate every change must
# pass: formatting, vet, staticcheck (when installed), build, and the
# full test suite under the race detector (the parallel engine and the
# governance layer must stay data-race free).

GO ?= go

.PHONY: check fmt vet no-deleted-knobs staticcheck build test race smoke-fleet bench-check fuzz bench-parallel bench-incr bench-gov bench-multicheck bench-scale bench-feas bench-registry bench-fleet bench-micro profile clean

check: fmt vet no-deleted-knobs staticcheck build race smoke-fleet bench-check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The engine has one configuration per paper feature switch and no
# semantics-preserving ones: to ablate an optimisation, benchmark the
# commit before it (README "Ablating an optimisation"). The one-letter
# brackets keep this line from matching itself when the same search is
# run over Makefiles too; they match the plain identifiers. The fleet
# likewise has one configuration, its worker list: the queue, quota and
# batch knobs of its deleted scheduler stay gone (DESIGN.md §15). And a
# cached run is the plain run (DESIGN.md §8): the record's summary
# section, the lazy merge engines that read it and the sibling-engine
# reload gate stay gone too. And a run stores only what a later run
# reads (DESIGN.md §8, §12): the pass-1 AST entries and the streaming
# summary spill stay gone.
no-deleted-knobs:
	! grep -rnE 'Match[M]emo|Block[F]ilter|Tuple[I]ntern|Lean[A]lloc|Multi[D]ispatch|Tenant[Q]uota|Queue[D]epth|Batch[S]ize' --include=*.go .
	! grep -rnE 'Load[S]ummaries|summary[S]ource|Retired[S]et|Allow[S]pillReload|Summaries[L]oaded|SummaryBytes[D]eferred' --include=*.go .
	! grep -rnE 'Load[S]ources|AST[K]ey|Files[R]eplayed|Set[S]pill|Summary[S]pill|maybe[R]eload|Spill[D]ir|Put[S]ummary|Get[S]ummary' --include=*.go .

# staticcheck is optional locally (the repo adds no dependencies) but
# mandatory in CI, which installs it. Configured by staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -timeout 120s keeps a wedged traversal (the exact failure mode the
# governance layer exists to cut) from hanging the gate.
race:
	$(GO) test -race -timeout 120s ./...

# Boots a real coordinator + worker pair (DESIGN.md §15) and checks
# health and one analyze round-trip, so the fleet flags can't rot.
smoke-fleet:
	sh scripts/smoke_fleet.sh

# benchmark/ is a nested module compiled against these packages
# (BENCHMARK.json runs it), so root `go build ./... && go test ./...`
# never see it: an API change here must not silently break it.
bench-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Go-native fuzzing of the decoders that read bytes from outside the
# process (ROADMAP item 4a), seed corpora under testdata/fuzz/. The
# budget is short: CI smoke, not a campaign. FuzzOpenStore goes through
# the file system and FuzzWorkRequest (the /v1/work body) runs whole
# analyses, so their coverage is noisy and the fuzzer's default 60 s
# minimisation of every interesting input would eat the budget.
# FuzzEnvOps is the odd one out: no decoder, but the §8 fact
# environment driven against its map-based reference implementation.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fpp/
	$(GO) test -run '^$$' -fuzz FuzzDecodeUnit -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzOpenStore -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzWorkRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fleet/

# Engine-parallelism scaling series (DESIGN.md §5): sweeps -j over the
# E11 workload, asserts byte-identical output, writes BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/mcbench -exp par

# Incremental-replay series (DESIGN.md §8): warm-vs-cold live units
# per edit on the E11 workload; dies if warm output is not
# byte-identical to cold or the one-file body tweak falls below the 5x
# reduction bar. Writes BENCH_incremental.json.
bench-incr:
	$(GO) run ./cmd/mcbench -exp incr

# Governance-overhead series (DESIGN.md §9): plain vs budgeted
# RunContext on the E11 workload; dies above 5% overhead or on
# any output difference. Writes BENCH_governance.json.
bench-gov:
	$(GO) run ./cmd/mcbench -exp gov

# Multi-checker dispatch scaling (DESIGN.md §11): 5/50/200-checker
# suites at -j 1 and -j 8; dies if the 50-checker suite exceeds 3x the
# 5-checker runtime, or on any output difference. Writes
# BENCH_multicheck.json.
bench-multicheck:
	$(GO) run ./cmd/mcbench -exp multicheck

# Memory-bounded streaming series (DESIGN.md §12): MixedTree at four
# sizes, spill on/off, each cell in a child process so peak RSS is
# per-cell; dies on any output difference or if a 4x tree grows peak
# RSS beyond 2x with spill on. Writes BENCH_scale.json. CI passes
# SCALE_FLAGS=-scale-short (two sizes, no ratio assertion).
SCALE_FLAGS ?=
bench-scale:
	$(GO) run ./cmd/mcbench -exp scale $(SCALE_FLAGS)

# Feasibility-verdict series (DESIGN.md §13): seeded TP/FP population
# through the second-tier pass; dies if any seeded true positive is
# marked infeasible (false kill), if no seeded false positive is
# killed, or if the warm run replays no cached verdicts. Writes
# BENCH_feas.json. CI passes FEAS_FLAGS=-feas-short (smaller
# population).
FEAS_FLAGS ?=
bench-feas:
	$(GO) run ./cmd/mcbench -exp feas $(FEAS_FLAGS)

# Checker-platform series (DESIGN.md §14): hot-reload latency (first
# analyze after an enable vs steady-state warm analyze) and admission
# throughput through /v1/checkers upload→validate→verdict; dies if an
# enabled checker is not live on the next analyze, if any clean
# candidate is rejected, or if the hostile candidate is admitted.
# Writes BENCH_registry.json.
bench-registry:
	$(GO) run ./cmd/mcbench -exp registry

# Scale-out fleet series (DESIGN.md §15): worker-count sweep with
# byte-identity against the single-process run, second-tenant reuse
# over a warm shared CAS (>= 90% replayed, zero dispatches), and the
# K=8 identical-burst coalescing bound (one analysis, <= 1.5x one
# post). Writes BENCH_fleet.json. CI passes FLEET_FLAGS=-fleet-short
# (smaller tree and sweep).
FLEET_FLAGS ?=
bench-fleet:
	$(GO) run ./cmd/mcbench -exp fleet $(FLEET_FLAGS)

# Microbenchmarks for the §10 hot paths (match memoization, block and
# call-rich traversal, instance clone, the per-path FPP environment's
# clone and fingerprint, edge-set insertion) and the disk store (§8:
# 2685 records / 5.6 MB, written as one batch and indexed at open).
# -benchtime 100x keeps the target quick enough for CI; drop the
# override for stable local numbers.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkBaseMatch|BenchmarkBlockTraversal|BenchmarkCallRichTraversal|BenchmarkInstanceClone|BenchmarkEdgeSetAdd|BenchmarkEnvClone|BenchmarkEnvFingerprint|BenchmarkStoreOpen|BenchmarkStorePutBatch' \
		-benchtime 100x ./internal/pattern/ ./internal/core/ ./internal/fpp/ ./internal/cache/

# CPU + allocation profiles (written to pprof/): the 5/50/200-checker
# suite runs, and the cold-calls shape — the full bundled suite over a
# call-rich tree, no cache — which is where the DFS hot loop (DESIGN.md
# §10.4) shows.
# Inspect with: go tool pprof pprof/mcbench.cpu
#               go tool pprof pprof/core.test pprof/callrich.cpu
profile:
	mkdir -p pprof
	$(GO) run ./cmd/mcbench -cpuprofile pprof/mcbench.cpu -memprofile pprof/mcbench.mem -exp multicheck
	$(GO) test -run '^$$' -bench BenchmarkCallRichTraversal -benchtime 2000x -o pprof/core.test \
		-cpuprofile pprof/callrich.cpu -memprofile pprof/callrich.mem ./internal/core/

clean:
	rm -f BENCH_parallel.json BENCH_incremental.json BENCH_governance.json BENCH_multicheck.json BENCH_scale.json BENCH_feas.json BENCH_registry.json BENCH_fleet.json
	rm -rf pprof
	$(GO) clean ./...
