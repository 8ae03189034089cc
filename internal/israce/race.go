//go:build race

// Package israce reports whether the race detector instruments this
// build. Its instrumentation allocates (and empties sync.Pools at
// random), so tests that hold a path to an exact allocation count skip
// themselves under it.
package israce

// Enabled is true in -race builds.
const Enabled = true
