//go:build race

// Package israce reports whether the race detector is compiled in, for
// tests whose expectations it changes: under the detector sync.Pool drops a
// quarter of its Puts at random, so allocation counts of pooled paths stop
// being exact.
package israce

// Enabled is true when the binary was built with -race.
const Enabled = true
