//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so exact allocation budgets do not hold.
const raceEnabled = true
