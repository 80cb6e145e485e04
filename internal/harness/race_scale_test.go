//go:build race

package harness

// Under the race detector every measurement runs roughly an order of
// magnitude slower; shrink the determinism golden test's workloads so the
// package stays inside the test timeout while still exercising all ten
// experiments on both scheduler paths.
func init() { detScale = 0.02 }
