//go:build !unix

package main

import "time"

// processCPU reports no CPU time where getrusage is unavailable, so the
// bench's cpu_seconds fields read 0 and are omitted.
func processCPU() time.Duration { return 0 }
