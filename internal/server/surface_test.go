package server

// The daemon's observable surface: every /v1/stats key and every
// /v1/metrics series, pinned against testdata/daemon_surface.golden.

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// surfaceAdditions are the entries /v1/stats and /v1/metrics gained
// when both began rendering one series list: the cumulative cache
// counters and the inflight gauge on /v1/stats, feas_stale present at
// zero, and the max_inflight gauge on /v1/metrics.
var surfaceAdditions = map[string]bool{
	"stats cache_hits":          true,
	"stats cache_misses":        true,
	"stats cache_puts":          true,
	"stats cache_put_errors":    true,
	"stats inflight":            true,
	"stats feas_stale":          true,
	"metric xgccd_max_inflight": true,
	"sample xgccd_max_inflight": true,
}

// daemonSurface flattens both endpoints into entries: "stats KEY" with
// the JSON value (or "object" for a nested object), "metric FAMILY"
// with its TYPE, and "sample NAME{LABELS}" with the value, masked for
// timing families (*_seconds). It fails the test unless each family
// has exactly one # TYPE line, written before its samples.
func daemonSurface(t *testing.T, base string) map[string]string {
	t.Helper()
	out := map[string]string{}
	_, body := getBody(t, base+"/v1/stats")
	var flat map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &flat); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	for k, raw := range flat {
		v := string(raw)
		if strings.HasPrefix(v, "{") {
			v = "object"
		}
		out["stats "+k] = v
	}

	_, body = getBody(t, base+"/v1/metrics")
	sampled := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := out["metric "+f[2]]; dup {
				t.Errorf("family %s has a second # TYPE line", f[2])
			}
			if sampled[f[2]] {
				t.Errorf("family %s: # TYPE after its samples", f[2])
			}
			out["metric "+f[2]] = f[3]
		default:
			name, v, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line %q", line)
			}
			fam, _, _ := strings.Cut(name, "{")
			if _, typed := out["metric "+fam]; !typed {
				t.Errorf("sample %s precedes its family's # TYPE line", name)
			}
			sampled[fam] = true
			if strings.HasSuffix(fam, "_seconds") {
				v = "masked"
			}
			out["sample "+name] = v
		}
	}
	return out
}

// seriesForStatsKey names the /v1/metrics sample that carries a flat
// /v1/stats key: xgccd_KEY or xgccd_KEY_total, except for the resident
// file count and the labelled validation outcomes.
func seriesForStatsKey(surface map[string]string, key string) (string, bool) {
	if key == "files" {
		return "xgccd_resident_files", true
	}
	if outcome, ok := strings.CutPrefix(key, "validations_"); ok {
		return `xgccd_validations_total{outcome="` + outcome + `"}`, true
	}
	for _, name := range []string{"xgccd_" + key, "xgccd_" + key + "_total"} {
		if _, ok := surface["sample "+name]; ok {
			return name, true
		}
	}
	return "", false
}

// TestDaemonSurface: after one verified analyze on a coordinator with
// one worker, every /v1/stats key and /v1/metrics series of the golden
// is present with the same value (timings masked), the only new
// entries are surfaceAdditions, every flat /v1/stats key has a series
// with the same value, and each family has one # TYPE line ahead of
// its samples.
func TestDaemonSurface(t *testing.T) {
	ts := httptest.NewUnstartedServer(nil)
	cas := cache.NewHTTPStore("http://"+ts.Listener.Addr().String()+"/v1/cas", nil)
	wsrv := httptest.NewServer(fleet.NewWorker(cas, 1).Handler())
	defer wsrv.Close()
	co := fleet.NewCoordinator(fleet.Config{Workers: []string{wsrv.URL}})
	defer co.Close()
	s := New(Config{Jobs: 1, Fleet: co, Verify: true, VerifyWorkers: 1})
	defer s.Close()
	ts.Config.Handler = s.Handler()
	ts.Start()
	defer ts.Close()

	srcs, _ := workload.MixedTree(2, 4, 11)
	srcs["drv.c"] = feasSrc
	if got := postAnalyze(t, ts, AnalyzeRequest{Files: srcs}); got.Incr == nil || got.Incr.UnitsRemote == 0 {
		t.Fatalf("no units filled remotely: %+v", got.Incr)
	}
	s.DrainVerdicts()
	got := daemonSurface(t, ts.URL)

	data, err := os.ReadFile("testdata/daemon_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		entry, v, _ := strings.Cut(line, "\t")
		want[entry] = true
		if g, ok := got[entry]; !ok {
			t.Errorf("%s is gone (was %s)", entry, v)
		} else if g != v {
			t.Errorf("%s = %s, was %s", entry, g, v)
		}
	}
	var added []string
	for entry, v := range got {
		if !want[entry] && !surfaceAdditions[entry] {
			added = append(added, entry+"\t"+v)
		}
	}
	sort.Strings(added)
	for _, a := range added {
		t.Errorf("unexpected new entry %s", a)
	}

	for entry, v := range got {
		key, ok := strings.CutPrefix(entry, "stats ")
		if !ok || v == "object" {
			continue
		}
		name, ok := seriesForStatsKey(got, key)
		if !ok {
			t.Errorf("/v1/stats %s has no /v1/metrics series", key)
			continue
		}
		sv, _ := strconv.ParseFloat(v, 64)
		mv, err := strconv.ParseFloat(got["sample "+name], 64)
		if key == "requests" {
			mv-- // the /v1/metrics scrape counted itself after /v1/stats
		}
		if err != nil || sv != mv {
			t.Errorf("/v1/stats %s = %s but %s = %s", key, v, name, got["sample "+name])
		}
	}

	// Before its first run a daemon reports no last run: /v1/stats reads
	// reports 0 and carries no nested run objects, /v1/metrics has no
	// xgccd_reports and no last-run gauges.
	fresh := New(Config{Jobs: 1})
	defer fresh.Close()
	fts := httptest.NewServer(fresh.Handler())
	defer fts.Close()
	pre := daemonSurface(t, fts.URL)
	if pre["stats reports"] != "0" {
		t.Errorf("pre-run /v1/stats reports = %q, want 0", pre["stats reports"])
	}
	for _, entry := range []string{"stats incr", "stats checkers", "metric xgccd_reports", "metric xgccd_units_live"} {
		if v, ok := pre[entry]; ok {
			t.Errorf("pre-run surface has %s (%s)", entry, v)
		}
	}
}
