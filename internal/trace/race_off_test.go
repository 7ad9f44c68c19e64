//go:build !race

package trace

// raceEnabled reports a -race build, whose sync.Pool deliberately drops
// some Puts, so allocation counts over pooled paths are not exact.
const raceEnabled = false
