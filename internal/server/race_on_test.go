//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of its Puts, so byte budgets that rely on pooling do not hold.
const raceEnabled = true
