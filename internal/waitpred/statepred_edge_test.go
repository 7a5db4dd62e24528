package waitpred

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// Adversarial inputs for the state-based predictor: degenerate scheduler
// states and knob settings an admission controller can feed it must
// degrade to "no estimate" or a clamped configuration, never to a panic,
// an infinite interval, or a negative wait.

func edgeJob(nodes int) *workload.Job {
	return &workload.Job{ID: 1, Nodes: nodes, RunTime: 600, MaxRunTime: 600}
}

func TestStatePredictorZeroCapacityState(t *testing.T) {
	p := NewStatePredictor(DefaultStateTemplates(false))
	// A zero-node "machine": free fraction is undefined, queued work zero.
	s := State{Now: 0, QueueLen: 3, QueuedWork: 0, FreeNodes: 0, TotalNodes: 0}
	j := edgeJob(4)

	if w, ok := p.PredictWait(s, j, 2400); ok || w != 0 {
		t.Fatalf("empty predictor on zero-capacity state: (%d, %v), want no estimate", w, ok)
	}
	// Learning from the degenerate state must not corrupt later estimates.
	p.ObserveWait(s, j, 2400, 100)
	p.ObserveWait(s, j, 2400, 300)
	w, ok := p.PredictWait(s, j, 2400)
	if !ok || w < 0 {
		t.Fatalf("after observing zero-capacity states: (%d, %v), want nonnegative estimate", w, ok)
	}
	if w != 200 {
		t.Fatalf("estimate = %d, want the category mean 200", w)
	}
}

func TestStatePredictorJobLargerThanMachine(t *testing.T) {
	p := NewStatePredictor(DefaultStateTemplates(false))
	// The job requests 64 nodes of a 4-node machine, and the running set
	// already oversubscribes it (negative free count).
	s := CaptureState(0, nil, []*workload.Job{edgeJob(8)}, 4,
		func(j *workload.Job, age int64) int64 { return j.RunTime })
	if s.FreeNodes >= 0 {
		t.Fatalf("precondition: free = %d, want negative (oversubscribed)", s.FreeNodes)
	}
	big := edgeJob(64)
	jobWork := int64(big.Nodes) * big.RunTime

	p.ObserveWait(s, big, jobWork, 500)
	p.ObserveWait(s, big, jobWork, 500)
	w, ok := p.PredictWait(s, big, jobWork)
	if !ok || w != 500 {
		t.Fatalf("oversized job: (%d, %v), want 500", w, ok)
	}
}

func TestStatePredictorLevelClamped(t *testing.T) {
	p := NewStatePredictor(DefaultStateTemplates(false))
	cases := []struct {
		in, want float64
	}{
		{1.0, maxStateLevel},  // t-quantile at level 1 would be +Inf
		{17.5, maxStateLevel}, // far out of range
		{maxStateLevel, maxStateLevel},
		{0, 0.5}, // nonpositive inverts the interval; clamp to the median
		{-3, 0.5},
		{0.9, 0.9}, // in-range passes through
	}
	for _, tc := range cases {
		p.SetLevel(tc.in)
		if p.Level() != tc.want {
			t.Errorf("SetLevel(%g): level = %g, want %g", tc.in, p.Level(), tc.want)
		}
	}

	// At the clamped maximum the contest still produces finite estimates.
	p.SetLevel(1.0)
	s := State{Now: 0, QueueLen: 2, QueuedWork: 1000, FreeNodes: 2, TotalNodes: 4}
	j := edgeJob(2)
	p.ObserveWait(s, j, 1200, 100)
	p.ObserveWait(s, j, 1200, 900)
	w, ok := p.PredictWait(s, j, 1200)
	if !ok {
		t.Fatal("no estimate at clamped level")
	}
	if w < 0 || int64(math.MaxInt32) < w {
		t.Fatalf("estimate = %d, want finite mean near 500", w)
	}
}

func TestStatePredictorSingleObservationRampUp(t *testing.T) {
	p := NewStatePredictor(DefaultStateTemplates(false))
	s := State{Now: 0, QueueLen: 1, QueuedWork: 600, FreeNodes: 1, TotalNodes: 4}
	j := edgeJob(2)

	// One observation: no confidence interval exists yet, so the predictor
	// must decline rather than return a zero-width guess.
	p.ObserveWait(s, j, 1200, 250)
	if w, ok := p.PredictWait(s, j, 1200); ok {
		t.Fatalf("single observation yielded estimate %d, want none", w)
	}
	// The second observation completes the ramp-up.
	p.ObserveWait(s, j, 1200, 350)
	w, ok := p.PredictWait(s, j, 1200)
	if !ok || w != 300 {
		t.Fatalf("two observations: (%d, %v), want 300", w, ok)
	}
}
