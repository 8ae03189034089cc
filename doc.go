// Package repro reproduces "Security for Grid Services" (Welch et al.,
// HPDC 2003): the Grid Security Infrastructure of the Globus Toolkit
// versions 2 and 3, built from scratch in Go on the standard library.
//
// The public API lives in pkg/gsi; this package holds the cross-module
// integration tests. The repo's one benchmark is the separate module
// under bench/ (bash bench/run.sh; see BENCHMARK.json). See DESIGN.md
// for the system inventory.
package repro
