//go:build race

package core

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop Puts at random, so allocation counts are not meaningful under it.
const raceEnabled = true
