package spill

import "repro/internal/cache"

// OpenLog opens the summary log at path: the cache's one disk store type.
func OpenLog(path string) (*cache.LogStore, error) { return cache.OpenLogStore(path) }
