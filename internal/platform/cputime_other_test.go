//go:build !unix

package platform

import "time"

// processCPU cannot read the process's CPU time off unix.
func processCPU() (time.Duration, bool) { return 0, false }
