//go:build race

package verify

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random, so pooled scratch cannot be held to zero allocations.
const raceEnabled = true
