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

# Keeps deleted settings, mechanisms and representations gone: each grep
# follows a line naming what it keeps out and the DESIGN section that
# states the decision. The one-letter brackets keep a pattern from
# matching itself when the search is run over Makefiles too.
no-deleted-knobs:
# the ablation knobs (DESIGN §10) and the fleet scheduler's queue, quota and batch knobs (DESIGN §15).
	! grep -rnE 'Match[M]emo|Block[F]ilter|Tuple[I]ntern|Lean[A]lloc|Multi[D]ispatch|Tenant[Q]uota|Queue[D]epth|Batch[S]ize' --include=*.go .
# the record's summary section, the lazy merge engines and the reload gate (DESIGN §8).
	! grep -rnE 'Load[S]ummaries|summary[S]ource|Retired[S]et|Allow[S]pillReload|Summaries[L]oaded|SummaryBytes[D]eferred' --include=*.go .
# the pass-1 AST entries and the streaming summary spill (DESIGN §8, §12).
	! grep -rnE 'Load[S]ources|AST[K]ey|Files[R]eplayed|Set[S]pill|Summary[S]pill|maybe[R]eload|Spill[D]ir|Put[S]ummary|Get[S]ummary' --include=*.go .
# mcbench's perf tiers, their flags and host facts (DESIGN §10.5).
	! grep -rnE 'exp[P]ar|exp[I]ncr|exp[G]ov|exp[M]ulticheck|exp[S]cale|exp[F]eas|exp[R]egistry|exp[F]leet|scale[-]cell|(scale|feas|fleet)[-]short|Host[F]acts' --include=*.go .
# the per-point match memo, its second matcher, the dispatch strategy labels and the string-keyed callout context (DESIGN §10.1).
	! grep -rnE 'Pre[M]atch|Syn[M]atch|pre[K]ey|match[T]rans|dispatch[S]trategy|Ctx[.]Extra|\.Extra\[' --include=*.go .
# the per-engine point expansion, argument pairing, scope-set memos and second dispatch gate (DESIGN §5).
	! grep -rnE 'points[O]K|block[P]oints|build[F]ilters|formal[N]odes|build[A]rgMaps|local[O]mitFor|nonParam[L]ocals|new[B]lockInfo' --include=*.go .
# the per-block dispatch context, the string-keyed block recorder and the per-call miss-id map (DESIGN §5).
	! grep -rnE 'point[D]ispatch|inst[K]ey|new[B]lockRec|created[K]illed|miss[I]Ds|callee[S]M' --include=*.go .
# the streaming switch, its flags and the retirement plan (DESIGN §12).
	! grep -rnE 'max[-]resident|stream[S]tate|Retire[P]lan|new[S]tream' --include=*.go .
# the per-match binding map and its copy (DESIGN §10.1).
	! grep -rnE 'map\[[s]tring\]Binding|Bindings[.]clone' --include=*.go .
# the CAS probe interface, GET coalescing and its counters, the unread server counters and the engine-global block bound (DESIGN §15.1).
	! grep -rnE 'Prob[e]r|CoalescedG[e]ts|FlightWait[e]rs|CASCount[e]rs|httpRes[u]lt|MaxBl[o]cks|HitBl[o]ckLimit' --include=*.go .
# a function's type map and locals sets, beside the body they describe (DESIGN §10.4).
	! grep -rnE 'Type[M]ap\b|NonParam[L]ocals|(fn|ctx)\.Type[s]\b' --include=*.go .
# a why-trace line formatted on its own: a kept report renders its trace into one string (DESIGN §5).
	! grep -rnE 'Sprintf\("%s: %s' --include=*.go --exclude=*_test.go internal/core
# the per-event witness cell, the per-split state clone and the fact environment's clone (DESIGN §5).
	! grep -rnE 'path[L]og|clone[F]or|clone[S]lack' --include=*.go .
# the hand-copied stats body, the CAS-sharing switch and the per-handler method checks (DESIGN §9.5).
	! grep -rnE 'Share[C]AS|StatsRes[p]onse|GET [o]nly|POST [o]nly' --include=*.go .
# single-valued settings: option caps, the run timeout, the cache directory, the harness corpus and z gate, the one-call analyze form, the registry generation, the pair-stats map, the verdict budget (DESIGN §7, §9.1, §14.3).
	! grep -rnE 'Analyze[C]ontext|Corpus[S]cale|Min[R]eports|Max[I]ters|\bCache[D]ir\b|Pair[S]tats|Verdict[B]udget|[Oo]pts\.Max[CP]|core\.Max[CP]|\.Generatio[n]\(|cfg\.Harnes[s]' --include=*.go .
# the per-configuration manifest, its changed-function count and the log compaction it needed (DESIGN §8).
	! grep -rnE 'Load[M]anifest|Save[M]anifest|Manifest[K]ey|cache\.[M]anifest|diff[M]anifest|config[F]ingerprint|Funcs[C]hanged|maybe[C]ompact|\.Compaction[s]' --include=*.go .
# the engine's capped struct-key cache and the rendered-key map it fronted (DESIGN §10.3).
	! grep -rnE 'idsCache[C]ap|by[S]tr|idBy[S]tr' --include=*.go internal/core
# the daemon's verdict queue, its worker-count knob, stale-verdict bookkeeping, latency sample and verdict cache (DESIGN §13).
	! grep -rnE 'Verify[W]orkers|verify[-]workers|New[P]ipeline|Drain[V]erdicts|Verdict[K]ey|feas[-]v1|verify[C]ur|verify[S]tale|lat[S]ample|P50[M]icros' --include=*.go .
# the verdict tier, its filter, rank stratum, report fields and term-string hooks, and the witness path with its log (DESIGN §13; benchmark/ still names feas.*).
	! grep -rnE 'internal/[f]eas|[f]eas[.]|Verified[O]nly|Verdict(R[a]nk|W[h]y|U[n]verified|C[o]nfirmed|I[n]feasible|U[n]known)|Term[O]f|Canon[T]erm|Const[T]erm|Term[C]onst|Path[S]tep\b|Multi[P]ath|log[E]vent' --include=*.go --exclude-dir=benchmark .
# the analyzer-lifetime mark store, the counting store wrapper, the retire-time inspection hook and the Supergraph setting and result (DESIGN §8).
	! grep -rnE 'With[M]etrics|cache\.[M]etrics|\*[c]ounted\b|[c]ounted\{|cache[M]etrics|disk[S]tore|\.Inspec[t]\(|Inspectio[n]\(|\binspecte[d]\b|(RunConfig|Result|cfg|res)\.Supergrap[h]\b|RunConfig\{[^}]*Supergrap[h]:|a\.share[d]\b' --include=*.go .
# the tenant selector, its default, the per-tenant reload map and the registry's per-tenant sets (DESIGN §14.1).
	! grep -rnE 'tenant[O]f|Default[T]enant|X-[T]enant|last[E]nabled|\?[t]enant=|\bT[e]nants\b' --include=*.go --exclude-dir=benchmark .
# a pointer in a summary edge: its end expressions or an instance field, which the interner's representatives and the provenance table replace (DESIGN §10.3).
	! grep -rnE 'fromExp[r]|toExp[r]' --include=*.go internal/core
	! awk '/^type edge struct/,/^}/' internal/core/*.go | grep -n '\*Instanc[e]'
# the lexer's '$' knob and token and the parser's heap scope per block (DESIGN §10.4).
	! grep -rnE 'Allow[D]ollar|TokDollar[H]ole|newParse[S]cope' --include=*.go .
# a pointer type made anywhere but PointerTo, which makes one per element type (DESIGN §10.4).
	! awk '/^func PointerTo\(/,/^}/ {next} /&Type\{Kind: TypePointe[r]/ {print FILENAME ":" FNR ": " $$0; found=1} END {exit !found}' internal/cc/*.go
# metal's literal tokens, which no rule read, and the nine type-keyword flags (DESIGN §3).
	! grep -rnE '\bt[S]tring\b|\bt[I]nt\b|sawLong[L]ong|sawUnsig[n]' --include=*.go .
# a second structural comparison in the pattern matcher, which is cc.MatchExpr plus the hole hook: comparing a compound node asserts the point's node type (DESIGN §3).
	! grep -nE '\.\(\*cc\.(U[n]aryExpr|B[i]naryExpr|A[s]signExpr|C[o]ndExpr|I[n]dexExpr|F[i]eldExpr|C[a]stExpr|S[i]zeofExpr|C[o]mmaExpr)\)' internal/pattern/pattern.go
# a panic catcher in the front end's decoders (DESIGN §3).
	! grep -rn 'recove[r]()' --include=*.go internal/cc
# the string-keyed fingerprint map and the per-function FPP table (DESIGN §5).
	! grep -rnE 'map\[[s]tring\]uint32|fp[s]\[[s]tring|fi[.]term[s]\b|funcInfo[.]term[s]\b' --include=*.go .
# exports only tests called: loop havoc, statement parser and printer, test-only helpers, extra run doors, action and callout registration (TestNoTestOnlyExports).
	! grep -rnE 'Havoc[A]ssigned|havoc[S]tmt|havoc[E]xpr|Stmt[S]tring|write[S]tmt|Is[I]nteger|\.Transitions[F]rom\(|\.Has[V]arState\(|Must[P]arse|\bBy[Z]\(|\.By[R]ule\(|Sorted[F]iles|Add[D]irectory|cc\.Round[T]rip|func Round[T]rip|Block[F]or\(|Register[A]ction|Register[C]allout|\.Run[F]unction\(|\.Run[R]oots\(' --include=*.go .
# an instance or why-trace cell made outside the engine's slabs: a split, a refine, a restore, a synonym and a trace event take the next element (DESIGN §5).
	! grep -rnE '&Instanc[e]\{|&traceLis[t]\{|new\((Instanc[e]|traceLis[t])\)' --include=*.go --exclude=*_test.go internal/core
# a process-wide pool in the engine: retired summary memory is the evicting engine's (DESIGN §12.1).
	! grep -rn 'sync\.[P]ool' --include=*.go internal/core
# a process-wide pool in the front end: an arena is a pass's, not the process's (DESIGN §10.4).
	! grep -rn 'sync\.[P]ool' --include=*.go internal/cc internal/cfg internal/prog internal/slab
# fpp's second operator switch and the kill pass's identifier search (DESIGN §3).
	! grep -rnE 'apply[B]inop|Contains[I]dent' --include=*.go .
# the eager why-trace format (DESIGN §5).
	! grep -rnE 'trace[.]push\(fmt' --include=*.go internal/core
# the formatted report key (DESIGN §5).
	! grep -rnE 'seen +map\[[s]tring\]bool' --include=*.go internal/report
# the per-block feature map of the dispatch compiler (DESIGN §11.1).
	! grep -rnE 'callees +map\[[s]tring\]bool' --include=*.go internal/core
# metal's action converter and argument type, the callout's private argument list and core's callee resolver (DESIGN §3).
	! grep -rnE 'exprTo[A]ction|calloutArg[S]rc|calleeName[O]f|\bAction[A]rg\b' --include=*.go .
# a direct call's name read anywhere but cc.CalleeName (DESIGN §3; benchmark/ keeps its own).
	! grep -rnE 'Fun\.\(\*cc\.[I]dent\)' --include=*.go --exclude-dir=benchmark .
# the per-transition action context, the cloned partition tuples and the per-instance match prior (DESIGN §5).
	! grep -rnE '&action[C]tx\{|slices\.Clone\(c\.tuple[s]\)|inst\.prio[r]\b' --include=*.go internal/core
# object keys rendered to a string only to look them up (DESIGN §10.3).
	! grep -rnE 'cc\.ExprKe[y]\(' --include=*.go --exclude=*_test.go internal/core
# the joined and re-scanned strings actions built facts and messages from (DESIGN §5).
	! grep -nE 'strings\.(Joi[n]|Replac[e])' internal/core/actions.go
# the unit record's JSON codec (DESIGN §8 "The unit record").
	! grep -nE 'encoding/[j]son|[j]son\.' internal/cache/entry.go
# mcbench's BENCH_*.json series (DESIGN §10.5).
	! ls BENCH_*.json 2>/dev/null | grep .
# the analyzer's parallel checker fingerprint and source lists, and the wire bound's three copies (DESIGN §9.5, §14.1, §15.1).
	! grep -rnE 'checker[F]Ps|checker[S]rcs|maxRequest[B]ody|casMax[B]lob|workerMax[B]ody' --include=*.go .
# xgcc's and xgccd's ablation flags: the paper's ablations are mcbench experiments over core.Options (DESIGN §4).
	! grep -rnE '"(i[n]tra|no-[f]pp|no-[i]nter)"' --include=*.go cmd
# the second pass 1 that parsed every body of a run without a store, and the dispatch's second fill with its program-wide skip table (DESIGN §8, §11.1).
	! grep -rnE 'parse[S]ources|skip[A]ll|prog[A]dmit|cc\.Parse[F]iles' --include=*.go .
# the sorted pre-annotation list, the engine's second and third mention walks, the mark-role tests by name and the per-switch case list (DESIGN §5).
	! grep -rnE 'sorted[M]arks|mark[E]ntry|mentions[A]ny|leftoverCaller[L]ocals|annotator[O]f|consumer[O]f|Uses[A]ction|Uses[C]allout|case[V]als' --include=*.go .

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
# FuzzBuildCFG feeds C source, seeded from testdata/corpus, to the
# parser (no input panics it) and holds every CFG it builds to
# TestOnlyBranchesFork's invariants.
# FuzzMetalParse feeds checker text, seeded from the bundled checkers
# and testdata/metalc, to metal.Parse: no input panics it, and what
# parses parses again from its Source to the same String().
# FuzzSkim feeds C source to pass 1's body skim: no input panics it,
# its spans are brace-balanced, and wherever the parser accepts a file
# the skim names the CFG's callees and its bodies parse on demand to
# the whole-file parse's bytes (DESIGN §8).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fpp/
	$(GO) test -run '^$$' -fuzz FuzzPrefilterSound -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeUnit -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzOpenStore -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzWorkRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzReadFile -fuzztime $(FUZZTIME) ./internal/cc/
	$(GO) test -run '^$$' -fuzz FuzzBuildCFG -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/cfg/
	$(GO) test -run '^$$' -fuzz FuzzMetalParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/metal/
	$(GO) test -run '^$$' -fuzz FuzzSkim -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .

# Microbenchmarks for the §10 hot paths (pattern match, block and
# call-rich traversal, instance clone, an interned tuple's id, the
# per-path FPP environment's copy and fingerprint, edge-set insertion,
# a kept report's rendering),
# the front end (parse + prog.Build, §10.4) and the disk store (§8:
# 2685 records / 5.6 MB, written as one batch and indexed at open).
# -benchtime 100x keeps the target quick enough for CI; drop the
# override for stable local numbers.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkBaseMatch|BenchmarkBlockTraversal|BenchmarkCallRichTraversal|BenchmarkInstanceClone|BenchmarkInternHit|BenchmarkEdgeSetAdd|BenchmarkEnvCopy|BenchmarkEnvFingerprint|BenchmarkReportRender|BenchmarkFrontEnd|BenchmarkStoreOpen|BenchmarkStorePutBatch' \
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
# The cold-leaf op of BENCHMARK.json itself (BenchmarkColdLeaf: leaf-L,
# seed 2002, every bundled checker, Jobs 2), a warm-up op and six more,
# the heap sampled every 4096 bytes:
#               go tool pprof -sample_index=alloc_objects pprof/coldleaf.test pprof/coldleaf.mem
profile:
	mkdir -p pprof
	$(GO) test -run '^$$' -bench BenchmarkCheckerSuite -benchtime 20x -o pprof/repro.test -cpuprofile pprof/suite.cpu -memprofile pprof/suite.mem .
	$(GO) test -run '^$$' -bench 'BenchmarkCallRichTraversal/(plain|retiring)' -benchtime 2000x -o pprof/core.test \
		-cpuprofile pprof/callrich.cpu -memprofile pprof/callrich.mem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkFrontEnd -benchtime 200x -o pprof/prog.test \
		-cpuprofile pprof/frontend.cpu -memprofile pprof/frontend.mem ./internal/prog/
	$(GO) test -run '^$$' -bench BenchmarkColdLeaf -benchtime 6x -o pprof/coldleaf.test \
		-cpuprofile pprof/coldleaf.cpu -memprofile pprof/coldleaf.mem -memprofilerate 4096 .

clean:
	rm -rf pprof
	$(GO) clean ./...
