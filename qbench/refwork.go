package main

import (
	"fmt"
	"runtime"
	"slices"
)

// CPU time on a shared host runs slower or faster by tens of percent from
// one minute to the next, as other tenants load the cores and caches the
// VM shares. The benchmark therefore reports CPU costs in reference
// CPU-seconds: between pieces of measured work it runs a fixed piece of
// reference work, built from the standard library alone, and multiplies
// the run's CPU times and latencies by refNominal over the reference
// work's CPU time.
// The reference work is timed in the CPU time of its own thread, so
// nothing the program does in other goroutines can lengthen it.

// refNominal is the reference work's thread CPU time on the 2-vCPU machine
// the rates and limits were sized on: the median over 16 runs of the
// workloads' median samples, which ranged from 4.0 to 5.2 ms.
const refNominal = 0.0047

// refWork is the reference work: sorting a fixed pseudo-random slice and
// probing a fixed map with it, the kinds of work the program's layers do.
type refWork struct {
	keys, scratch []uint64
	index         map[uint64]uint32
	sink          uint64
}

const refKeys = 1 << 15

func newRefWork() *refWork {
	w := &refWork{keys: make([]uint64, refKeys), scratch: make([]uint64, refKeys), index: make(map[uint64]uint32, refKeys)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range w.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.keys[i] = x
		w.index[x>>3] = uint32(i)
	}
	return w
}

// run does the reference work once.
func (w *refWork) run() {
	copy(w.scratch, w.keys)
	slices.Sort(w.scratch)
	var sum uint64
	for _, k := range w.scratch {
		sum += uint64(w.index[k>>3])
	}
	w.sink += sum
}

// refRuns is how many times one sample repeats the reference work.
const refRuns = 4

// sample returns the reference work's mean thread CPU time in seconds over
// refRuns repetitions, or 0 where thread CPU time cannot be read.
func (w *refWork) sample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, ok0 := threadCPU()
	for i := 0; i < refRuns; i++ {
		w.run()
	}
	t1, ok1 := threadCPU()
	if !ok0 || !ok1 {
		return 0
	}
	return (t1 - t0).Seconds() / refRuns
}

// speed samples the reference work between the pieces of a run's measured
// work. Its speed changes within a second as well, so a run converts its
// CPU costs by one factor, taken from the median of all its samples.
type speed struct {
	w       *refWork
	samples []float64
}

func newSpeed() *speed {
	s := &speed{w: newRefWork()}
	s.mark()
	return s
}

// mark samples the reference work; it runs while the server idles.
func (s *speed) mark() {
	if x := s.w.sample(); x > 0 {
		s.samples = append(s.samples, x)
	}
}

// release drops the reference work's buffers, so that they do not count
// in the live heap the run reports; mark must not be called after it.
func (s *speed) release() { s.w = nil }

// factor converts the run's CPU seconds to reference CPU seconds:
// refNominal over the median sample, or 1 where there is no sample.
func (s *speed) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refNominal / median(s.samples)
}

// note describes the conversion for a metric's note.
func (s *speed) note() string {
	return fmt.Sprintf("reference work %.2f ms per run, median of %d samples, factor %.3f",
		1000*median(s.samples), len(s.samples), s.factor())
}
