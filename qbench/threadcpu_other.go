//go:build !linux

package main

import "time"

// threadCPU is the calling thread's CPU time; ok is false where the system
// cannot tell it, as here: CPU costs are then reported unconverted.
func threadCPU() (time.Duration, bool) { return 0, false }
