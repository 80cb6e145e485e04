//go:build race

package profile_test

// Under the race detector every run is roughly an order of magnitude
// slower; shrink the stream-identity wall's workloads to stay inside the
// test timeout while still covering every program.
func init() { streamScale = 0.02 }
