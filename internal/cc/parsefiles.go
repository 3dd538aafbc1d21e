package cc

import (
	"fmt"
	"sort"
	"sync"
)

// ParseFiles is pass 1 over a source set: every file is parsed on a
// pool of at most workers goroutines into name-sorted slots, and errors
// surface exactly as in a sequential name-ordered parse — the failure
// for the first (sorted) offending name wins.
func ParseFiles(srcs map[string]string, workers int) ([]*File, error) {
	names, files, errs := eachFile(srcs, workers, ParseFile)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", names[i], err)
		}
	}
	return files, nil
}

// SkimFiles is ParseFiles with SkimFile: declarations parsed, bodies
// skimmed. Its error is the one ParseFiles would return: before the
// first (sorted) file that fails, the skimmed bodies of the files
// sorted ahead of it are parsed in order, and the first of them that
// fails wins.
func SkimFiles(srcs map[string]string, workers int) ([]*File, error) {
	names, files, errs := eachFile(srcs, workers, SkimFile)
	for i, err := range errs {
		if err == nil {
			continue
		}
		for j, f := range files[:i] {
			for _, d := range f.Decls {
				if fd, ok := d.(*FuncDecl); ok {
					if berr := ParseBody(fd); berr != nil {
						return nil, fmt.Errorf("parse %s: %w", names[j], berr)
					}
				}
			}
		}
		return nil, fmt.Errorf("parse %s: %w", names[i], err)
	}
	return files, nil
}

// eachFile runs pass over every source on a pool of at most workers
// goroutines, into name-sorted slots.
func eachFile(srcs map[string]string, workers int, pass func(name, src string) (*File, error)) ([]string, []*File, []error) {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)

	files := make([]*File, len(names))
	errs := make([]error, len(names))
	one := func(i int) { files[i], errs[i] = pass(names[i], srcs[names[i]]) }

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
	return names, files, errs
}
