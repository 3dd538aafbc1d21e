// Command xgccd is the long-running xgcc analysis daemon: it keeps
// the source tree and per-unit analysis results resident, so repeated
// analyses after small edits re-parse the tree and replay every unit
// the edit didn't touch (DESIGN.md §8).
//
// A typical session:
//
//	xgccd -addr :8745 -checkers free,lock,null -registry /var/lib/xgccd &
//	curl -s -X POST localhost:8745/v1/analyze \
//	    -d '{"files": {"drv.c": "void kfree(void *p); int f(int *p) { kfree(p); return *p; }"}}'
//	curl -s localhost:8745/v1/reports?format=text
//	curl -s localhost:8745/v1/metrics
//
// Checkers can also be uploaded at runtime through the /v1/checkers
// admission pipeline (upload, validate, enable; DESIGN.md §14) — an
// enabled checker is live on the tenant's next analyze without a
// restart, and with -registry the uploaded set survives restarts.
//
// The HTTP surface is versioned under /v1/; any other path answers
// with the enveloped 404. Governance flags bound the daemon's resource
// use: -max-inflight sheds excess analyze requests with 429,
// -request-timeout cancels overlong runs with 503, and the budget
// flags truncate runaway traversals (DESIGN.md §9).
//
// Scale-out (DESIGN.md §15): the same binary is every fleet role.
//
//	xgccd -coordinator -workers http://w1:8746,http://w2:8746
//	xgccd -worker -cas http://coordinator:8745/v1/cas -addr :8746
//
// A coordinator is an ordinary daemon that additionally serves its
// store at /v1/cas/ and shards each run's cache-miss units over
// the workers; workers fill unit cache keys in the shared store and
// hold no state a restart could lose. Without -coordinator/-worker
// the daemon is the unchanged single-process mode — output is
// byte-identical across all three shapes.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/mc"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8745", "listen address")
		checkerList = flag.String("checkers", "free,lock,null", "comma-separated bundled checkers")
		cacheDir    = flag.String("cache", "", "persist the analysis cache in this directory (default: in-memory)")
		registryDir = flag.String("registry", "", "persist uploaded checkers in this directory so /v1/checkers state survives restarts (default: in-memory)")
		jobs        = flag.Int("j", 0, "analysis parallelism (0 = GOMAXPROCS)")
		noFPP       = flag.Bool("no-fpp", false, "disable false path pruning")
		noInter     = flag.Bool("no-inter", false, "disable interprocedural analysis")
		maxInflight = flag.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently admitted analyze requests (excess gets 429)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request analysis deadline (503 on expiry; 0 = unbounded)")
		pathSteps   = flag.Int64("budget-path-steps", 0, "per-path program-point budget (0 = unbounded)")
		funcBlocks  = flag.Int64("budget-func-blocks", 0, "per-root block-visit budget (0 = unbounded)")
		funcTime    = flag.Duration("budget-func-time", 0, "per-root wall-clock budget (0 = unbounded)")

		// Fleet roles (DESIGN.md §15).
		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator: serve the store at /v1/cas/ and shard cache-miss units over -workers")
		worker      = flag.Bool("worker", false, "run as a fleet worker: serve /v1/work over the shared CAS given by -cas (no analyze surface)")
		workerList  = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
		casURL      = flag.String("cas", "", "shared CAS base URL: required for -worker; optional for -coordinator to use an external CAS instead of its own store")
		readyFile   = flag.String("ready-file", "", "after listening, write the actual listen address to this file (smoke tests and scripts)")
	)
	var checkerFiles []string
	flag.Func("checker-file", "load a metal checker from a file (repeatable)", func(path string) error {
		checkerFiles = append(checkerFiles, path)
		return nil
	})
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: xgccd [flags]\n")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *coordinator && *worker {
		log.Fatalf("xgccd: -coordinator and -worker are mutually exclusive")
	}

	// Worker mode: no resident tree, no registry, no analyze surface —
	// just the job protocol over the shared store.
	if *worker {
		if *casURL == "" {
			log.Fatalf("xgccd: -worker requires -cas (the shared CAS base URL)")
		}
		w := fleet.NewWorker(cache.NewHTTPStore(*casURL, nil), *jobs)
		log.Printf("xgccd: worker listening on %s (cas: %s)", *addr, *casURL)
		serve(*addr, *readyFile, w.Handler())
		return
	}

	opts := mc.DefaultOptions()
	opts.FPP = !*noFPP
	opts.Interprocedural = !*noInter
	opts.Budgets = mc.Budgets{
		PathSteps:  *pathSteps,
		FuncBlocks: *funcBlocks,
		FuncTime:   *funcTime,
	}

	cfg := server.Config{
		Options:        &opts,
		Jobs:           *jobs,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
	}
	for _, name := range strings.Split(*checkerList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cfg.Checkers = append(cfg.Checkers, name)
		}
	}
	for _, path := range checkerFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("xgccd: %v", err)
		}
		cfg.CheckerSources = append(cfg.CheckerSources, string(src))
	}
	if *cacheDir != "" {
		ds, err := cache.NewDirStore(*cacheDir)
		if err != nil {
			log.Fatalf("xgccd: open cache: %v", err)
		}
		cfg.Store = ds
	}
	if *registryDir != "" {
		reg, err := registry.Open(*registryDir)
		if err != nil {
			log.Fatalf("xgccd: open registry: %v", err)
		}
		cfg.Registry = reg
	}

	if *coordinator {
		// The coordinator's store IS the shared CAS: served at
		// /v1/cas/ for workers (setting cfg.Fleet mounts it), analyzed
		// against locally. With -cas it instead joins an external CAS
		// (and still re-serves it, so workers may point at either).
		if *casURL != "" {
			cfg.Store = cache.NewHTTPStore(*casURL, nil)
		}
		var workers []string
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workers = append(workers, u)
			}
		}
		if len(workers) == 0 {
			log.Printf("xgccd: coordinator with no -workers: every unit runs locally until workers join a future restart")
		}
		co := fleet.NewCoordinator(fleet.Config{Workers: workers})
		defer co.Close()
		cfg.Fleet = co
		log.Printf("xgccd: coordinator listening on %s (workers: %d)", *addr, len(workers))
	}

	srv := server.New(cfg)
	if !*coordinator {
		log.Printf("xgccd: listening on %s (checkers: %s, max-inflight: %d)", *addr, *checkerList, *maxInflight)
	}
	serve(*addr, *readyFile, srv.Handler())
}

// serve listens, optionally publishes the bound address to readyFile
// (written atomically next to its final name, so a watcher never reads
// a half-written path), and blocks serving h.
func serve(addr, readyFile string, h http.Handler) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("xgccd: listen: %v", err)
	}
	if readyFile != "" {
		tmp := readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("xgccd: ready file: %v", err)
		}
		if err := os.Rename(tmp, readyFile); err != nil {
			log.Fatalf("xgccd: ready file: %v", err)
		}
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := hs.Serve(ln); err != nil {
		log.Fatalf("xgccd: %v", err)
	}
}
