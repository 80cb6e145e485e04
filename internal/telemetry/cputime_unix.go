//go:build unix

package telemetry

import (
	"syscall"
	"time"
)

// ProcessCPU returns the CPU time, user plus system, that the process has
// used so far, from getrusage.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
