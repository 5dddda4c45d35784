//go:build !unix

package main

import "time"

// processCPU is unavailable off Unix; cpu_us_per_msg then reads 0.
func processCPU() time.Duration { return 0 }
