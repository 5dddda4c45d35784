//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the process has
// used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
