package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MetricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json, the one place that names the metrics, their
// units and bounds, the workloads and the run length.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// repoRoot is the directory holding BENCHMARK.json: the working
// directory (the driver and run.sh start there) or its parent (go run
// from inside benchmark/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func loadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// layerNames lists every per-layer metric the traced run produces, so
// that a layer a workload never touches still reports a zero.
var layerNames = []string{
	"cc.lex_s", "cc.lex_tokens", "cc.parse_s", "cc.src_bytes", "cc.emit_s", "cc.emit_bytes", "cc.read_s", "cc.hash_s",
	"cfg.build_s", "cfg.blocks",
	"prog.build_s", "prog.funcs", "prog.units", "prog.units_s", "prog.retire_plan_s",
	"metal.parse_s", "metal.transitions",
	"core.compile_s", "core.engine_s", "core.engine_max_s", "core.points", "core.blocks", "core.paths",
	"core.pruned_paths", "core.instance_ops", "core.analyses", "core.block_cache_hit_ratio",
	"core.func_cache_hit_ratio", "core.export_s", "core.import_s", "core.summary_bytes",
	"rank.generic_s", "rank.grouped_s", "report.count", "report.render_s",
	"feas.annotate_s", "feas.verdicts", "feas.unknown_ratio",
	"cache.get_n", "cache.get_s", "cache.get_bytes", "cache.put_n", "cache.put_s", "cache.put_bytes",
	"cache.hit_ratio", "cache.encode_s", "cache.decode_s",
	"spill.evictions", "spill.reloads", "spill.puts", "spill.put_bytes", "spill.asts_released",
	"spill.encode_s", "spill.decode_s", "spill.log_put_s", "spill.log_get_s",
	"mc.run_s", "mc.unattributed_s", "mc.incr_parse_s", "mc.incr_build_s", "mc.incr_analyze_s", "mc.incr_merge_s",
	"mc.files_reparsed", "mc.units_live", "mc.units_replayed", "mc.funcs_invalidated", "mc.reuse_ratio",
	"server.handler_s", "server.analysis_s", "server.overhead_s", "server.req_bytes", "server.resp_bytes", "server.refused",
	"fleet.dispatched", "fleet.requeues", "fleet.refused", "fleet.units_remote", "fleet.worker_requests",
	"fleet.worker_busy_s", "fleet.cas_requests", "fleet.cas_bytes", "fleet.coord_wait_s",
	"runtime.gc_cpu_s", "runtime.gc_cycles", "runtime.heap_peak_mb",
	"trace.overhead_ratio",
}
