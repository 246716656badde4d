//go:build unix

package platform

import (
	"syscall"
	"time"
)

// processCPU is the CPU time, user and system, the test process has used
// so far (getrusage(RUSAGE_SELF)); false where it cannot be read.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
