# Developer entry points. `make check` is the gate every change must
# pass: formatting, vet, staticcheck (when installed), build, and the
# full test suite under the race detector (the parallel engine and the
# governance layer must stay data-race free).

GO ?= go

.PHONY: check fmt vet no-deleted-knobs staticcheck build test race smoke-fleet bench-check fuzz bench-micro profile clean

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
# summary spill stay gone. And there is one bench system (DESIGN.md
# §10.5): mcbench's perf tiers, their flags and their BENCH_*.json
# stay gone; a gate is a go test assertion, a number is BENCHMARK.json's.
# And pattern dispatch has one matcher and one gate (DESIGN.md §10.1):
# the per-point match memo and its second matcher, the dispatch strategy
# labels and the string-keyed callout context stay gone. And the
# program model is built once (DESIGN.md §5): the per-engine point
# expansion, argument pairing, scope-set memos and second dispatch gate
# stay gone. And the DFS owns its stacks (DESIGN.md §5): the per-block
# dispatch context, the string-keyed block recorder and the per-call
# miss-id map stay gone. And a run has one mode (DESIGN.md §12): the
# streaming switch, its flags and the retirement plan stay gone. And a
# match binds into the context's buffer (DESIGN.md §10.1): the per-match
# binding map and its copy stay gone. And the shared CAS speaks two batch
# operations (DESIGN.md §15.1): the probe interface, the GET coalescing
# and its counters, the unread server counters and the engine-global
# block bound stay gone. And a path's memory is the engine's (DESIGN.md
# §5): the per-event witness cell, the per-split state clone and the fact
# environment's clone stay gone. And the daemon names each series once
# (DESIGN.md §9.5): the hand-copied stats body, the CAS-sharing switch
# a coordinator already implies and the per-handler method checks the
# route patterns replaced stay gone. And every setting has a second
# value in use (DESIGN.md §7, §9.1, §14.3): the engine's two caps are
# constants, a run's deadline is its context's, a cache directory is a
# store the caller opens, the harness corpus and z gate are fixed, and
# the one-call analyze form, the registry generation, the pair-stats
# map and the second verdict-budget derivation stay gone. And every key
# in the store names its content (DESIGN.md §8): the per-configuration
# manifest, its changed-function count and the log compaction only its
# re-puts needed stay gone. And a tuple is five integers (DESIGN.md
# §10.3): the engine's capped struct-key cache and the rendered-key map
# it fronted stay gone. And a
# verdict is a loop (DESIGN.md §13.4): the daemon's verdict queue, its
# worker-count knob, its stale-verdict bookkeeping and latency sample,
# and the verdict cache stay gone. And a cap is a budget (DESIGN.md §7,
# §9.2): the engine's two caps record a degrade event and are not
# exported, so nothing outside the engine names them. And there is one
# false-path model (DESIGN.md §8): the verdict tier, its filter, rank
# stratum and report fields, the term-string hooks only it read, and
# the witness path with the engine's log that recorded it stay gone
# (benchmark/ still names its feas.* metrics until it is unfrozen). And
# a run owns its state (DESIGN.md §8): the analyzer-lifetime mark store,
# the counting store wrapper and its counters, the engine's
# retire-time inspection hook and the Supergraph setting and result
# field that fed it stay gone. And the daemon serves one checker set
# (DESIGN.md §14): the tenant selector and its default, the per-tenant
# reload map and the registry's per-tenant sets stay gone. And the front
# end allocates like the engine (DESIGN.md §10.4): the lexer's '$' knob
# and token, which only a test set, and the parser's heap scope per block
# stay gone. And the front end's decoders return errors (DESIGN.md §3):
# the panic catcher ReadFile had, or any other, stays out of internal/cc.
# And the FPP table is the engine's (DESIGN.md §5): the string-keyed
# fingerprint map and the per-function table in funcInfo stay gone.
# And the product's API is what the product calls (TestNoTestOnlyExports):
# the loop havoc no engine path ran, the statement parser and printer,
# the test-only checker, rank, report, server and analyzer helpers, the
# engine's second and third run doors and its per-engine action and
# callout registration stay gone. And a retired function's summary
# memory is pooled by the engine that evicted it (DESIGN.md §12.1): no
# sync.Pool or other process-wide pool enters internal/core. And a C
# expression is folded, walked and rewritten in internal/cc (DESIGN.md
# §3): fpp's second operator switch and the identifier search only the
# kill pass called stay gone. And a path allocates only what outlives it
# (DESIGN.md §10.4): the eager why-trace format, the formatted report key
# and the per-block feature map stay gone. And a checker's calls are
# parsed once (DESIGN.md §3): metal's action converter and argument
# type, the callout's private argument list and core's callee resolver
# stay gone, and a direct call's name is read by cc.CalleeName only
# (benchmark/ keeps its own until it is unfrozen).
# And a transition and a call return allocate only what they keep
# (DESIGN.md §10.4): the per-transition action context, the per-instance
# match prior, the cloned partition tuples, the object keys core rendered
# to a string only to look them up, and the joined and re-scanned strings
# actions built their facts and messages from stay gone. And a warm run
# decodes without encoding/json (DESIGN.md §8 "The unit record"): the
# unit record's JSON codec stays out of internal/cache/entry.go.
no-deleted-knobs:
	! grep -rnE 'Match[M]emo|Block[F]ilter|Tuple[I]ntern|Lean[A]lloc|Multi[D]ispatch|Tenant[Q]uota|Queue[D]epth|Batch[S]ize' --include=*.go .
	! grep -rnE 'Load[S]ummaries|summary[S]ource|Retired[S]et|Allow[S]pillReload|Summaries[L]oaded|SummaryBytes[D]eferred' --include=*.go .
	! grep -rnE 'Load[S]ources|AST[K]ey|Files[R]eplayed|Set[S]pill|Summary[S]pill|maybe[R]eload|Spill[D]ir|Put[S]ummary|Get[S]ummary' --include=*.go .
	! grep -rnE 'exp[P]ar|exp[I]ncr|exp[G]ov|exp[M]ulticheck|exp[S]cale|exp[F]eas|exp[R]egistry|exp[F]leet|scale[-]cell|(scale|feas|fleet)[-]short|Host[F]acts' --include=*.go .
	! grep -rnE 'Pre[M]atch|Syn[M]atch|pre[K]ey|match[T]rans|dispatch[S]trategy|Ctx[.]Extra|\.Extra\[' --include=*.go .
	! grep -rnE 'points[O]K|block[P]oints|build[F]ilters|formal[N]odes|build[A]rgMaps|local[O]mitFor|nonParam[L]ocals|new[B]lockInfo' --include=*.go .
	! grep -rnE 'point[D]ispatch|inst[K]ey|new[B]lockRec|created[K]illed|miss[I]Ds|callee[S]M' --include=*.go .
	! grep -rnE 'max[-]resident|stream[S]tate|Retire[P]lan|new[S]tream' --include=*.go .
	! grep -rnE 'map\[[s]tring\]Binding|Bindings[.]clone' --include=*.go .
	! grep -rnE 'Prob[e]r|CoalescedG[e]ts|FlightWait[e]rs|CASCount[e]rs|httpRes[u]lt|MaxBl[o]cks|HitBl[o]ckLimit' --include=*.go .
	! grep -rnE 'path[L]og|clone[F]or|clone[S]lack' --include=*.go .
	! grep -rnE 'Share[C]AS|StatsRes[p]onse|GET [o]nly|POST [o]nly' --include=*.go .
	! grep -rnE 'Analyze[C]ontext|Corpus[S]cale|Min[R]eports|Max[I]ters|\bCache[D]ir\b|Pair[S]tats|Verdict[B]udget|[Oo]pts\.Max[CP]|core\.Max[CP]|\.Generatio[n]\(|cfg\.Harnes[s]' --include=*.go .
	! grep -rnE 'Load[M]anifest|Save[M]anifest|Manifest[K]ey|cache\.[M]anifest|diff[M]anifest|config[F]ingerprint|Funcs[C]hanged|maybe[C]ompact|\.Compaction[s]' --include=*.go .
	! grep -rnE 'idsCache[C]ap|by[S]tr|idBy[S]tr' --include=*.go internal/core
	! grep -rnE 'Verify[W]orkers|verify[-]workers|New[P]ipeline|Drain[V]erdicts|Verdict[K]ey|feas[-]v1|verify[C]ur|verify[S]tale|lat[S]ample|P50[M]icros' --include=*.go .
	! grep -rnE 'internal/[f]eas|[f]eas[.]|Verified[O]nly|Verdict(R[a]nk|W[h]y|U[n]verified|C[o]nfirmed|I[n]feasible|U[n]known)|Term[O]f|Canon[T]erm|Const[T]erm|Term[C]onst|Path[S]tep\b|Multi[P]ath|log[E]vent' --include=*.go --exclude-dir=benchmark .
	! grep -rnE 'With[M]etrics|cache\.[M]etrics|\*[c]ounted\b|[c]ounted\{|cache[M]etrics|disk[S]tore|\.Inspec[t]\(|Inspectio[n]\(|\binspecte[d]\b|(RunConfig|Result|cfg|res)\.Supergrap[h]\b|RunConfig\{[^}]*Supergrap[h]:|a\.share[d]\b' --include=*.go .
	! grep -rnE 'tenant[O]f|Default[T]enant|X-[T]enant|last[E]nabled|\?[t]enant=|\bT[e]nants\b' --include=*.go --exclude-dir=benchmark .
	! grep -rnE 'Allow[D]ollar|TokDollar[H]ole|newParse[S]cope' --include=*.go .
	! grep -rn 'recove[r]()' --include=*.go internal/cc
	! grep -rnE 'map\[[s]tring\]uint32|fp[s]\[[s]tring|fi[.]term[s]\b|funcInfo[.]term[s]\b' --include=*.go .
	! grep -rnE 'Havoc[A]ssigned|havoc[S]tmt|havoc[E]xpr|Stmt[S]tring|write[S]tmt|Is[I]nteger|\.Transitions[F]rom\(|\.Has[V]arState\(|Must[P]arse|\bBy[Z]\(|\.By[R]ule\(|Sorted[F]iles|Add[D]irectory|cc\.Round[T]rip|func Round[T]rip|Block[F]or\(|Register[A]ction|Register[C]allout|\.Run[F]unction\(|\.Run[R]oots\(' --include=*.go .
	! grep -rn 'sync\.[P]ool' --include=*.go internal/core
	! grep -rnE 'apply[B]inop|Contains[I]dent' --include=*.go .
	! grep -rnE 'trace[.]push\(fmt' --include=*.go internal/core
	! grep -rnE 'seen +map\[[s]tring\]bool' --include=*.go internal/report
	! grep -rnE 'callees +map\[[s]tring\]bool' --include=*.go internal/core
	! grep -rnE 'exprTo[A]ction|calloutArg[S]rc|calleeName[O]f|\bAction[A]rg\b' --include=*.go .
	! grep -rnE 'Fun\.\(\*cc\.[I]dent\)' --include=*.go --exclude-dir=benchmark .
	! grep -rnE '&action[C]tx\{|slices\.Clone\(c\.tuple[s]\)|inst\.prio[r]\b' --include=*.go internal/core
	! grep -rnE 'cc\.ExprKe[y]\(' --include=*.go --exclude=*_test.go internal/core
	! grep -nE 'strings\.(Joi[n]|Replac[e])' internal/core/actions.go
	! grep -nE 'encoding/[j]son|[j]son\.' internal/cache/entry.go
	! ls BENCH_*.json 2>/dev/null | grep .

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
# process (ROADMAP item 4(c)), seed corpora under testdata/fuzz/. The
# budget is short: CI smoke, not a campaign. FuzzOpenStore goes through
# the file system and FuzzWorkRequest (the /v1/work body) runs whole
# analyses, so their coverage is noisy and the fuzzer's default 60 s
# minimisation of every interesting input would eat the budget.
# FuzzReadFile reads pass-2 ASTs (cc.ReadFile): no input panics it, and
# what it decodes re-emits to bytes that read back to the same bytes.
# FuzzEnvOps and FuzzPrefilterSound are the odd ones out: no decoder,
# but the §8 fact environment driven against its map-based reference
# implementation, and the §11 pre-filter held to the matcher (a block no
# atom admits has no matching point, under any prior).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fpp/
	$(GO) test -run '^$$' -fuzz FuzzPrefilterSound -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeUnit -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzOpenStore -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzWorkRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzReadFile -fuzztime $(FUZZTIME) ./internal/cc/

# Microbenchmarks for the §10 hot paths (pattern match, block and
# call-rich traversal, instance clone, an interned tuple's id, the
# per-path FPP environment's copy and fingerprint, edge-set insertion),
# the front end (parse + prog.Build, §10.4) and the disk store (§8:
# 2685 records / 5.6 MB, written as one batch and indexed at open).
# -benchtime 100x keeps the target quick enough for CI; drop the
# override for stable local numbers.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkBaseMatch|BenchmarkBlockTraversal|BenchmarkCallRichTraversal|BenchmarkInstanceClone|BenchmarkInternHit|BenchmarkEdgeSetAdd|BenchmarkEnvCopy|BenchmarkEnvFingerprint|BenchmarkFrontEnd|BenchmarkStoreOpen|BenchmarkStorePutBatch' \
		-benchtime 100x ./internal/pattern/ ./internal/core/ ./internal/fpp/ ./internal/prog/ ./internal/cache/

# CPU + allocation profiles (written to pprof/): the 5/50/200-checker
# suite runs, and the cold-calls shape — the full bundled suite over a
# call-rich tree, no cache — which is where the DFS hot loop (DESIGN.md
# §10.4) shows.
# Inspect with: go tool pprof pprof/repro.test pprof/suite.cpu
#               go tool pprof pprof/core.test pprof/callrich.cpu
# and read the heap profile both ways, by bytes as well as by objects (a
# map per match was 10 % of the objects and 20 % of the bytes):
#               go tool pprof -sample_index=alloc_objects pprof/core.test pprof/callrich.mem
#               go tool pprof -sample_index=alloc_space   pprof/core.test pprof/callrich.mem
# The front end alone (parse + prog.Build over leaf-L's shape, §10.4):
#               go tool pprof -sample_index=alloc_objects pprof/prog.test pprof/frontend.mem
profile:
	mkdir -p pprof
	$(GO) test -run '^$$' -bench BenchmarkCheckerSuite -benchtime 20x -o pprof/repro.test -cpuprofile pprof/suite.cpu -memprofile pprof/suite.mem .
	$(GO) test -run '^$$' -bench 'BenchmarkCallRichTraversal/(plain|retiring)' -benchtime 2000x -o pprof/core.test \
		-cpuprofile pprof/callrich.cpu -memprofile pprof/callrich.mem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkFrontEnd -benchtime 200x -o pprof/prog.test \
		-cpuprofile pprof/frontend.cpu -memprofile pprof/frontend.mem ./internal/prog/

clean:
	rm -rf pprof
	$(GO) clean ./...
