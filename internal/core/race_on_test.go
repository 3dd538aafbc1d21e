//go:build race

package core

// raceEnabled reports whether the test binary was built with -race. The
// race detector allocates on its own account, so a test that asserts an
// exact allocation count skips that assertion under it, as the standard
// library's allocation tests do.
const raceEnabled = true
