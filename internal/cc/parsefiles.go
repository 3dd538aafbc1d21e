package cc

import (
	"fmt"
	"sort"
	"sync"
)

// SkimFiles is pass 1 over a source set: every file is skimmed
// (SkimFile) on a pool of at most workers goroutines into name-sorted
// slots, each goroutine carving from an arena of its own, which dies
// with the pool. Its error is the first (sorted) failing file's: the one
// a name-ordered ParseFile of every file returns.
func SkimFiles(srcs map[string]string, workers int) ([]*File, error) {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)

	files := make([]*File, len(names))
	errs := make([]error, len(names))
	one := func(a *Arena, i int) { files[i], errs[i] = SkimFile(a, names[i], srcs[names[i]]) }
	if workers = min(workers, len(names)); workers > 1 {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var a Arena
				for i := range idxCh {
					one(&a, i)
				}
			}()
		}
		for i := range names {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	} else {
		var a Arena
		for i := range names {
			one(&a, i)
		}
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", names[i], err)
		}
	}
	return files, nil
}
