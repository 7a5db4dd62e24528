package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID: the calling thread's CPU
// time, to the nanosecond.
const clockThreadCPUTime = 3

// threadCPU is the calling thread's CPU time; ok is false where the system
// cannot tell it.
func threadCPU() (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
