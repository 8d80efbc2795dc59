//go:build race

// Package race reports whether the race detector is compiled in, for tests
// whose expectations it changes: under -race sync.Pool drops a quarter of
// its Puts at random, so allocation ceilings over pooled state do not hold.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
