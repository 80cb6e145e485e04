//go:build !unix

package telemetry

import "time"

// ProcessCPU reports no CPU time where getrusage is unavailable, so the
// fields filled from it read 0 and are omitted.
func ProcessCPU() time.Duration { return 0 }
