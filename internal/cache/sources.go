package cache

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cc"
)

// LoadSources runs pass 1 over a source set: every file is parsed on a
// pool of at most workers goroutines into name-sorted slots, and errors
// surface exactly as in a sequential name-ordered parse — the failure
// for the first (sorted) offending name wins.
//
// A non-nil store adds the pass-1 AST cache: a file whose content hash
// is cached loads its emitted AST instead of re-parsing (the two-pass
// identity is pinned by the cc round-trip tests). One batched Get for
// every file's AST key up front, one batched Put for every freshly
// emitted AST at the end — on a batch-capable backend (shared CAS) the
// whole cache costs two round-trips regardless of file count. replayed
// counts the files that came from the store; the rest were parsed.
func LoadSources(s Store, srcs map[string]string, workers int) (files []*cc.File, replayed int, err error) {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)

	var keys []string
	var cached map[string][]byte
	if s != nil {
		keys = make([]string, len(names))
		for i, name := range names {
			keys[i] = ASTKey(name, cc.HashBytes([]byte(srcs[name])))
		}
		cached = GetBatch(s, keys)
	}

	files = make([]*cc.File, len(names))
	errs := make([]error, len(names))
	fromStore := make([]bool, len(names))
	emitted := make([][]byte, len(names))
	one := func(i int) {
		if s != nil {
			if data, ok := cached[keys[i]]; ok {
				if f, err := cc.ReadFile(data); err == nil {
					files[i], fromStore[i] = f, true
					return
				}
			}
		}
		f, err := cc.ParseFile(names[i], srcs[names[i]])
		if err != nil {
			errs[i] = err
			return
		}
		files[i] = f
		if s != nil {
			emitted[i] = cc.EmitFile(f)
		}
	}

	if workers > len(names) {
		workers = len(names)
	}
	if workers > 1 {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					one(i)
				}
			}()
		}
		for i := range names {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	} else {
		for i := range names {
			one(i)
		}
	}

	puts := map[string][]byte{}
	for i, data := range emitted {
		if data != nil {
			puts[keys[i]] = data
		}
	}
	if len(puts) > 0 {
		PutBatch(s, puts) // best effort
	}
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", names[i], err)
		}
	}
	for _, r := range fromStore {
		if r {
			replayed++
		}
	}
	return files, replayed, nil
}
