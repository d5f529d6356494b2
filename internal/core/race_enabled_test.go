//go:build race

package core

// Under the race detector sync.Pool deliberately drops items, so the
// reduced-precision kernels' pooled row scratch cannot hold 0 allocs/op.
const raceEnabled = true
