//go:build race

package gateway

// Under the race detector sync.Pool drops a random share of its Puts,
// so a pooled path allocates by design.
func init() { raceEnabled = true }
