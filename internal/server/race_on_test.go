//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so exact allocation counts do not repeat.
const raceEnabled = true
