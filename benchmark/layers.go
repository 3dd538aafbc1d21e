package main

// The traced op and the staged replay: per-layer numbers measured from
// outside, by timing calls into each package's exported functions and
// by reading the counters the program already returns.

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/spill"
	"repro/mc"
)

// runtimeCounters reads the cumulative GC CPU seconds and cycle count.
func runtimeCounters() (gcCPU float64, cycles uint64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// sampleHeap polls the live-object heap until stopped and returns the
// largest size it saw, in MB.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / 1e6
	}
}

func decodeReply(body []byte) (*server.AnalyzeResponse, error) {
	var reply server.AnalyzeResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("reply: %w", err)
	}
	return &reply, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedOp is one op run with the instruments on.
type tracedOp struct {
	rec      opRecord
	res      *mc.Result // kept for its counters; nil for a served op
	reply    []byte
	prev     map[string]string
	wall     float64
	gcCPU    float64
	gcCycles uint64
	heapPeak float64
}

func traceOne(p *probe, inst *instance, i int, t Tree) tracedOp {
	run := inst.next(i)
	p.reset(i)
	debug.FreeOSMemory() // as timeOp does before the ops it is compared with
	gc0, cyc0 := runtimeCounters()
	stopHeap := sampleHeap()
	p.parent = p.tr.begin("op", 0)
	p.on.Store(true)
	out, err := run()
	p.on.Store(false)
	op := tracedOp{res: out.res, reply: out.reply, prev: out.prev, wall: p.tr.end(p.parent).Seconds(), heapPeak: stopHeap()}
	gc1, cyc1 := runtimeCounters()
	op.gcCPU, op.gcCycles = gc1-gc0, cyc1-cyc0
	op.rec = record(out, err, t)
	return op
}

// tracedOps runs operations first, first+1, … with the probe switched
// on, then the staged replay of the last one, and returns every
// per-layer metric. Several traced ops, because the overhead ratio
// compares their median with the untraced baseline's and one op alone
// is as noisy as any op; the in-situ numbers are the last op's.
func tracedOps(w Workload, p *probe, inst *instance, first int, t Tree, baseline []float64) (map[string]float64, []opRecord, error) {
	var recs []opRecord
	var walls []float64
	var op tracedOp
	for i := first; i < first+tracedOpCount; i++ {
		op = traceOne(p, inst, i, t)
		recs = append(recs, op.rec)
		walls = append(walls, op.wall)
		if op.rec.err != nil {
			return nil, recs, fmt.Errorf("traced op: %w", op.rec.err)
		}
	}

	m := map[string]float64{
		"runtime.gc_cpu_s":     op.gcCPU,
		"runtime.gc_cycles":    float64(op.gcCycles),
		"runtime.heap_peak_mb": op.heapPeak,
	}

	// Counters the program returns.
	var incr *mc.IncrStats
	var sp *mc.SpillStats
	runS := p.runSeconds
	if op.res != nil {
		incr, sp = op.res.Incr, op.res.Spill
	} else {
		reply, err := decodeReply(op.reply)
		if err != nil {
			return nil, recs, err
		}
		incr, sp = reply.Incr, reply.Spill
		runS = float64(reply.ElapsedNano) / 1e9
		st := p.http["server"]
		m["server.handler_s"] = st.busy.Seconds()
		m["server.analysis_s"] = runS
		m["server.overhead_s"] = op.wall - runS
		m["server.req_bytes"] = float64(st.reqBytes)
		m["server.resp_bytes"] = float64(st.respBytes)
		m["server.refused"] = float64(st.non200)
	}
	m["mc.run_s"] = runS
	if incr != nil {
		m["mc.incr_parse_s"] = float64(incr.ParseNanos) / 1e9
		m["mc.incr_build_s"] = float64(incr.BuildNanos) / 1e9
		m["mc.incr_analyze_s"] = float64(incr.AnalyzeNanos) / 1e9
		m["mc.incr_merge_s"] = float64(incr.MergeNanos) / 1e9
		m["mc.files_reparsed"] = float64(incr.FilesReparsed)
		m["mc.units_live"] = float64(incr.UnitsLive)
		m["mc.units_replayed"] = float64(incr.UnitsReplayed)
		m["mc.funcs_invalidated"] = float64(incr.FuncsInvalidated)
		m["mc.reuse_ratio"] = ratio(float64(incr.UnitsReplayed), float64(incr.UnitsLive+incr.UnitsReplayed))
		m["fleet.units_remote"] = float64(incr.UnitsRemote)
	}
	if sp != nil {
		m["spill.evictions"] = float64(sp.Evictions)
		m["spill.reloads"] = float64(sp.Reloads)
		m["spill.puts"] = float64(sp.SpillPuts)
		m["spill.put_bytes"] = float64(sp.SpillBytes)
		m["spill.asts_released"] = float64(sp.ASTsReleased)
	}
	if st := p.store; st != nil {
		m["cache.get_n"] = float64(st.gets)
		m["cache.get_s"] = st.getTime.Seconds()
		m["cache.get_bytes"] = float64(st.getBytes)
		m["cache.put_n"] = float64(st.puts)
		m["cache.put_s"] = st.putTime.Seconds()
		m["cache.put_bytes"] = float64(st.putBytes)
		m["cache.hit_ratio"] = ratio(float64(st.hits), float64(st.gets))
	}
	if wk := p.http["fleet.worker"]; wk != nil {
		cas := p.http["fleet.cas"]
		m["fleet.dispatched"] = float64(p.coord.Dispatched)
		m["fleet.requeues"] = float64(p.coord.Requeues)
		m["fleet.refused"] = float64(p.coord.Refused)
		m["fleet.worker_requests"] = float64(wk.requests)
		m["fleet.worker_busy_s"] = wk.busy.Seconds()
		m["fleet.cas_requests"] = float64(cas.requests)
		m["fleet.cas_bytes"] = float64(cas.reqBytes + cas.respBytes)
		m["fleet.coord_wait_s"] = runS - wk.busy.Seconds()
	}

	rp := &replay{tr: p.tr, m: m, cached: w.Cached, streaming: sp != nil}
	if incr != nil {
		rp.liveLocally = incr.UnitsLive > 0
	}
	if p.store != nil {
		rp.gotBlobs, rp.putBlobs = p.store.gotBlobs, p.store.putBlobs
	}
	if err := rp.run(op.rec.srcs, op.prev, filepath.Join(p.workDir, "replay.log")); err != nil {
		return nil, recs, fmt.Errorf("staged replay: %w", err)
	}
	// The collector's CPU seconds compete with the stages that keep
	// every Jobs slot busy (jobs is the core count here) and stretch
	// them; the rest of its work runs on the core a sequential stage
	// leaves idle. Its work is taken to be spread evenly over the run.
	gcOnPath := m["runtime.gc_cpu_s"] / jobs * ratio(rp.saturated, rp.attributed)
	m["mc.unattributed_s"] = runS - rp.attributed - gcOnPath
	m["trace.overhead_ratio"] = ratio(median(walls), median(baseline))

	// Every declared metric exists for every workload; a layer the
	// workload does not touch reports zero.
	for _, name := range layerNames {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	return m, recs, nil
}

// replay calls the stages in the order mc.RunContext composes them,
// one at a time, each under a span.
type replay struct {
	tr *tracer
	m  map[string]float64
	// cached: the op ran mc's cache-aware path (hashing, unit
	// partition, entry encode/decode, summary import are real stages).
	cached bool
	// liveLocally: the op analyzed at least one unit in this process
	// rather than replaying all of them from the store.
	liveLocally bool
	streaming   bool
	gotBlobs    map[string][]byte
	putBlobs    map[string][]byte
	// attributed is the wall clock the stages account for: stage times
	// that run on Jobs slots enter as their list-scheduled makespan, and
	// saturated is the part of it spent in those stages.
	attributed float64
	saturated  float64
}

// parallel accounts for a stage whose tasks run on Jobs slots.
func (rp *replay) parallel(durs []float64) {
	d := makespan(durs, jobs)
	rp.attributed += d
	rp.saturated += d
}

func (rp *replay) run(cur, prev map[string]string, logPath string) error {
	tr, m := rp.tr, rp.m
	root := tr.begin("replay", 0)
	defer tr.end(root)
	names := sortedNames(cur)

	// Front end.
	srcBytes, tokens := 0, 0
	m["cc.lex_s"] = tr.timed("cc.lex", root, func() {
		for _, n := range names {
			toks, _ := cc.LexAll(n, cur[n])
			tokens += len(toks)
			srcBytes += len(cur[n])
		}
	})
	m["cc.lex_tokens"], m["cc.src_bytes"] = float64(tokens), float64(srcBytes)

	files := make([]*cc.File, len(names))
	frontDur := make([]float64, len(names)) // per file, what pass 1 costs it
	parse := tr.begin("cc.parse", root)
	for i, n := range names {
		t0 := time.Now()
		f, err := cc.ParseFile(n, cur[n])
		if err != nil {
			return err
		}
		files[i], frontDur[i] = f, time.Since(t0).Seconds()
	}
	m["cc.parse_s"] = tr.end(parse).Seconds()

	blobs := make([][]byte, len(files))
	emitDur := make([]float64, len(files))
	emit := tr.begin("cc.emit", root)
	emitBytes := 0
	for i, f := range files {
		t0 := time.Now()
		blobs[i] = cc.EmitFile(f)
		emitDur[i] = time.Since(t0).Seconds()
		emitBytes += len(blobs[i])
	}
	m["cc.emit_s"], m["cc.emit_bytes"] = tr.end(emit).Seconds(), float64(emitBytes)

	readDur := make([]float64, len(files))
	read := tr.begin("cc.read", root)
	for i, b := range blobs {
		t0 := time.Now()
		if _, err := cc.ReadFile(b); err != nil {
			return err
		}
		readDur[i] = time.Since(t0).Seconds()
	}
	m["cc.read_s"] = tr.end(read).Seconds()

	hashes := map[string]string{}
	m["cc.hash_s"] = tr.timed("cc.hash", root, func() {
		for _, f := range files {
			for _, fd := range f.Funcs() {
				hashes[f.Name+"\x00"+fd.Name] = cc.HashDecl(fd)
			}
		}
		cc.EnvHash(files)
	})
	if rp.cached {
		// The cache-aware pass 1 parses and emits a file it has no AST
		// for and reads the others back.
		for i, n := range names {
			if prev == nil || prev[n] != cur[n] {
				frontDur[i] += emitDur[i]
			} else {
				frontDur[i] = readDur[i]
			}
		}
	}
	rp.parallel(frontDur)

	// CFGs alone, then the whole program (which builds them again).
	cfgBlocks := 0
	m["cfg.build_s"] = tr.timed("cfg.build", root, func() {
		for _, f := range files {
			for _, fd := range f.Funcs() {
				cfgBlocks += len(cfg.Build(fd).Blocks)
			}
		}
	})
	m["cfg.blocks"] = float64(cfgBlocks)
	var p *prog.Program
	m["prog.build_s"] = tr.timed("prog.build", root, func() { p = prog.Build(files...) })
	m["prog.funcs"] = float64(len(p.All))
	var units []*prog.Unit
	m["prog.units_s"] = tr.timed("prog.units", root, func() { units = p.Units() })
	m["prog.units"] = float64(len(units))
	m["prog.retire_plan_s"] = tr.timed("prog.retire_plan", root, func() { p.PlanRetire(p.Roots) })
	rp.attributed += m["prog.build_s"]
	if rp.cached {
		rp.attributed += m["cc.hash_s"] + m["prog.units_s"]
	}
	if rp.streaming {
		rp.attributed += m["cc.hash_s"] + m["prog.retire_plan_s"]
	}

	// Checkers and the compiled dispatcher.
	var checkers []*metal.Checker
	transitions := 0
	var perr error
	m["metal.parse_s"] = tr.timed("metal.parse", root, func() {
		for _, s := range mc.BundledCheckers() {
			c, err := metal.Parse(s.Text)
			if err != nil {
				perr = err
				return
			}
			checkers = append(checkers, c)
			transitions += len(c.Transitions)
		}
	})
	if perr != nil {
		return perr
	}
	m["metal.transitions"] = float64(transitions)
	var cd *core.CompiledDispatch
	m["core.compile_s"] = tr.timed("core.compile", root, func() { cd = core.CompileDispatch(p, checkers) })
	rp.attributed += m["metal.parse_s"] + m["core.compile_s"]

	// Engines, one span per checker, in PlanPhases order. A cold run
	// traverses the whole program in one engine per checker; a warm
	// run traverses only the units the edit dirtied, one engine each.
	live := units
	if prev != nil {
		live = dirtyUnits(p, units, hashes, prev)
	}
	opts := mc.DefaultOptions()
	shared := core.NewShared()
	shared.Mark("net_wait", "blocking")
	type liveRun struct {
		ci  int
		en  *core.Engine
		fns []*prog.Function
	}
	var runs []liveRun
	var total core.Stats
	analyses := 0
	engines := tr.begin("core.engine", root)
	for _, phase := range core.PlanPhases(checkers) {
		var durs []float64
		for _, ci := range phase {
			id := tr.begin("core.engine/"+checkers[ci].Name, engines)
			newEngine := func() *core.Engine {
				en := core.NewEngineShared(p, checkers[ci], opts, shared)
				en.SetCompiled(cd, ci)
				return en
			}
			var ens []*core.Engine
			if prev == nil {
				en := newEngine()
				en.RunContext(context.Background())
				ens = append(ens, en)
				for _, u := range units {
					runs = append(runs, liveRun{ci, en, u.Funcs})
				}
			} else {
				for _, u := range live {
					en := newEngine()
					en.RunRootsContext(context.Background(), u.Roots)
					ens = append(ens, en)
					runs = append(runs, liveRun{ci, en, u.Funcs})
				}
			}
			d := tr.end(id).Seconds()
			durs = append(durs, d)
			m["core.engine_s"] += d
			if d > m["core.engine_max_s"] {
				m["core.engine_max_s"] = d
			}
			for _, en := range ens {
				if en.Failure != nil || en.Degraded() {
					return fmt.Errorf("replay engine %s did not complete", checkers[ci].Name)
				}
				s := en.Stats
				total.Points += s.Points
				total.Blocks += s.Blocks
				total.Paths += s.Paths
				total.PrunedPaths += s.PrunedPaths
				total.InstanceOps += s.InstanceOps
				total.CacheHits += s.CacheHits
				total.CacheMisses += s.CacheMisses
				total.FuncCacheHits += s.FuncCacheHits
				total.FuncFollows += s.FuncFollows
				for _, n := range s.Analyses {
					analyses += n
				}
			}
		}
		rp.parallel(durs)
	}
	tr.end(engines)
	m["core.points"] = float64(total.Points)
	m["core.blocks"] = float64(total.Blocks)
	m["core.paths"] = float64(total.Paths)
	m["core.pruned_paths"] = float64(total.PrunedPaths)
	m["core.instance_ops"] = float64(total.InstanceOps)
	m["core.analyses"] = float64(analyses)
	m["core.block_cache_hit_ratio"] = ratio(float64(total.CacheHits), float64(total.CacheHits+total.CacheMisses))
	m["core.func_cache_hit_ratio"] = ratio(float64(total.FuncCacheHits), float64(total.FuncCacheHits+total.FuncFollows))

	// Summaries out of the engines, per (checker, unit) as the cached
	// path's merge does it.
	exported := make([]*core.SummaryData, len(runs))
	m["core.export_s"] = tr.timed("core.export", root, func() {
		for i, r := range runs {
			exported[i] = r.en.ExportSummaries(r.fns)
		}
	})
	for _, sd := range exported {
		data, err := spill.Encode(sd)
		if err != nil {
			return err
		}
		m["core.summary_bytes"] += float64(len(data))
	}

	// Entries the op read from and wrote to the store, through the
	// codec again.
	var replayed []*cache.UnitEntry
	m["cache.decode_s"] = tr.timed("cache.decode", root, func() {
		for _, data := range rp.gotBlobs {
			if e, err := cache.DecodeUnit(data); err == nil && len(e.Roots) > 0 {
				replayed = append(replayed, e)
			}
		}
	})
	var written []*cache.UnitEntry
	for _, data := range rp.putBlobs {
		if e, err := cache.DecodeUnit(data); err == nil && len(e.Roots) > 0 {
			written = append(written, e)
		}
	}
	m["cache.encode_s"] = tr.timed("cache.encode", root, func() {
		for _, e := range written {
			cache.EncodeUnit(e)
		}
	})

	// Summaries into fresh merge engines. ImportSummaries is quadratic
	// in practice (it rebuilds a FuncID map of the whole program per
	// call), so it is replayed only where the op itself runs it: on the
	// cached path, once per live unit and once per replayed entry.
	if rp.cached {
		merge := make([]*core.Engine, len(checkers))
		for ci := range merge {
			merge[ci] = core.NewEngineShared(p, checkers[ci], opts, shared)
		}
		m["core.import_s"] = tr.timed("core.import", root, func() {
			if rp.liveLocally {
				for i, r := range runs {
					merge[r.ci].ImportSummaries(exported[i])
				}
			}
			for i, e := range replayed {
				if e.Summaries != nil {
					merge[i%len(merge)].ImportSummaries(e.Summaries)
				}
			}
		})
		rp.attributed += m["cache.get_s"] + m["cache.decode_s"] + m["core.import_s"]
		if rp.liveLocally {
			rp.attributed += m["core.export_s"] + m["cache.encode_s"] + m["cache.put_s"]
		}
	}

	if rp.streaming {
		if err := rp.spillCodec(runs[0].en, logPath); err != nil {
			return err
		}
	}
	return nil
}

// spillCodec replays the spill store's work over one engine's
// summaries, a function at a time as the engine spills them: encode,
// append to a packed log, read back, decode.
func (rp *replay) spillCodec(en *core.Engine, logPath string) error {
	tr, m := rp.tr, rp.m
	root := tr.begin("spill.codec", 0)
	defer tr.end(root)
	var sds []*core.SummaryData
	for _, fn := range en.Prog.All {
		sds = append(sds, en.ExportSummaries([]*prog.Function{fn}))
	}
	blobs := make([][]byte, len(sds))
	var err error
	m["spill.encode_s"] = tr.timed("spill.encode", root, func() {
		for i, sd := range sds {
			if blobs[i], err = spill.Encode(sd); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	lg, err := spill.OpenLog(logPath)
	if err != nil {
		return err
	}
	defer lg.Close()
	m["spill.log_put_s"] = tr.timed("spill.log_put", root, func() {
		for i, b := range blobs {
			if err = lg.Put(fmt.Sprint(i), b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["spill.log_get_s"] = tr.timed("spill.log_get", root, func() {
		for i := range blobs {
			blobs[i], _ = lg.Get(fmt.Sprint(i))
		}
	})
	m["spill.decode_s"] = tr.timed("spill.decode", root, func() {
		for _, b := range blobs {
			if _, err = spill.Decode(b); err != nil {
				return
			}
		}
	})
	return err
}

// dirtyUnits returns the units holding a function whose content
// differs from prev, or one of its transitive callers.
func dirtyUnits(p *prog.Program, units []*prog.Unit, hashes map[string]string, prev map[string]string) []*prog.Unit {
	old := map[string]string{}
	for _, n := range sortedNames(prev) {
		if f, err := cc.ParseFile(n, prev[n]); err == nil {
			for _, fd := range f.Funcs() {
				old[n+"\x00"+fd.Name] = cc.HashDecl(fd)
			}
		}
	}
	var changed []*prog.Function
	for _, fn := range p.All {
		if id := prog.FuncID(fn); old[id] != hashes[id] {
			changed = append(changed, fn)
		}
	}
	dirty := p.DirtyClosure(changed)
	var out []*prog.Unit
	for _, u := range units {
		for _, fn := range u.Funcs {
			if dirty[fn] {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// rankAndVerify times the output side on the plain engine's result for
// the traced op's tree: ranking, grouping, rendering and the
// feasibility pass.
func rankAndVerify(tr *tracer, m map[string]float64, ref *reference) {
	root := tr.begin("output", 0)
	defer tr.end(root)
	var ranked []*mc.Report
	m["rank.generic_s"] = tr.timed("rank.generic", root, func() { ranked = rank.Generic(ref.res.Reports) })
	m["rank.grouped_s"] = tr.timed("rank.grouped", root, func() { rank.Grouped(ref.res.Reports, ref.res.RuleStats) })
	m["report.count"] = float64(len(ranked))
	m["report.render_s"] = tr.timed("report.render", root, func() {
		for _, r := range ranked {
			_ = r.Detailed()
		}
	})
	var verdicts, unknown int64
	m["feas.annotate_s"] = tr.timed("feas.annotate", root, func() {
		st := ref.a.Verify(ref.res, jobs)
		verdicts, unknown = st.Done, st.Unknown
	})
	m["feas.verdicts"] = float64(verdicts)
	m["feas.unknown_ratio"] = ratio(float64(unknown), float64(verdicts))
}
