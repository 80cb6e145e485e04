//go:build race

package harness

// Under the race detector every measurement runs roughly an order of
// magnitude slower; shrink the determinism golden test's workloads so the
// package stays inside the test timeout while still exercising all ten
// experiments on both scheduler paths.  The exact golden is skipped: its
// scale is fixed by its file, and the detector cannot change simulated
// values.
func init() {
	detScale = 0.02
	goldenSkip = "the exact golden runs at a fixed scale; the race detector cannot change simulated values"
}
