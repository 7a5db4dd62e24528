// Package metasim simulates a metacomputing broker in front of several
// parallel computers — the paper's motivating scenario for queue wait-time
// prediction: "estimates of queue wait times are useful to guide resource
// selection when several systems are available" (§1).
//
// Jobs arrive at a broker, a Router picks a machine for each, and every
// machine runs its own scheduling policy. The PredictedTurnaround router
// forward-simulates each machine's scheduler with run-time predictions
// (waitpred) and submits to the machine with the smallest predicted
// wait + predicted run time; baseline routers (random, round-robin,
// least-work) quantify what the predictions buy.
package metasim

import (
	"fmt"
	"math/rand"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// MachineSpec describes one machine of the pool.
type MachineSpec struct {
	Name   string
	Nodes  int
	Policy sim.Policy
}

// MachineState is the broker-visible state of one machine at routing time.
type MachineState struct {
	Name    string
	Nodes   int
	Free    int
	Queue   []*workload.Job
	Running []*workload.Job
	// QueuedWork is Σ nodes×estimate over the queue, by the broker's
	// estimator.
	QueuedWork int64
	// RunningWork is Σ nodes×(estimated remaining time) over the running
	// jobs.
	RunningWork int64
}

// Router picks a machine index for each arriving job. Machines whose Nodes
// are below the job's request are excluded before the call; idx indexes the
// provided states.
type Router interface {
	Name() string
	Route(now int64, j *workload.Job, states []MachineState) (idx int)
}

// machine is the live state of one simulated machine.
type machine struct {
	spec MachineSpec
	sim.Machine
}

// MachineResult summarizes one machine after the run.
type MachineResult struct {
	Name        string
	Jobs        int
	Utilization float64
	MeanWaitMin float64
}

// Result summarizes a metasim run.
type Result struct {
	Router      string
	MeanWaitMin float64
	MaxWaitMin  float64
	Machines    []MachineResult
	// Routed counts jobs per machine index.
	Routed []int
}

// Run routes the workload's jobs (in submit order) across the machines.
// The predictor supplies run-time estimates both to the per-machine
// schedulers and to prediction-based routers; it observes completions
// globally (the broker sees every machine's stream). The input jobs are
// cloned.
func Run(jobs []*workload.Job, specs []MachineSpec, router Router, pred predict.Predictor) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("metasim: no machines")
	}
	ms := make([]*machine, len(specs))
	maxNodes := 0
	for i, s := range specs {
		if s.Nodes <= 0 || s.Policy == nil {
			return nil, fmt.Errorf("metasim: machine %q misconfigured", s.Name)
		}
		ms[i] = &machine{spec: s, Machine: sim.Machine{Nodes: s.Nodes, Free: s.Nodes}}
		if s.Nodes > maxNodes {
			maxNodes = s.Nodes
		}
	}

	est := func(j *workload.Job, age int64) int64 {
		return predict.Estimate(pred, j, age, predict.DefaultRuntime)
	}

	res := &Result{Router: router.Name(), Routed: make([]int, len(specs))}
	var all []*workload.Job
	var placed []int

	// Each event instant follows sim.Run's order: completions, then
	// arrivals, then scheduling passes.
	next := 0
	for next < len(jobs) || anyRunning(ms) {
		// Next event: earliest finish across machines vs next arrival.
		now, haveEvent := int64(1<<62-1), false
		if next < len(jobs) {
			now, haveEvent = jobs[next].SubmitTime, true
		}
		for _, m := range ms {
			if len(m.Running) > 0 && m.Running[0].EndTime < now {
				now, haveEvent = m.Running[0].EndTime, true
			}
		}
		if !haveEvent {
			// No arrivals and nothing running but queues non-empty: wedged.
			return nil, fmt.Errorf("metasim: wedged with queued jobs")
		}
		// 1. Completions at this instant on every machine, before arrivals,
		// so freed nodes are visible to the router.
		for _, m := range ms {
			for j := m.Finish(now); j != nil; j = m.Finish(now) {
				pred.Observe(j)
			}
		}
		// 2. Arrivals at this instant.
		for next < len(jobs) && jobs[next].SubmitTime == now {
			j := jobs[next].Clone()
			next++
			states := snapshot(ms, now, est)
			cands := candidates(ms, j)
			if len(cands) == 0 {
				return nil, fmt.Errorf("metasim: job %d needs %d nodes; no machine fits",
					j.ID, j.Nodes)
			}
			candStates := make([]MachineState, len(cands))
			for k, ci := range cands {
				candStates[k] = states[ci]
			}
			pick := router.Route(now, j, candStates)
			if pick < 0 || pick >= len(cands) {
				return nil, fmt.Errorf("metasim: router %s returned %d of %d candidates",
					router.Name(), pick, len(cands))
			}
			mi := cands[pick]
			res.Routed[mi]++
			ms[mi].Queue = append(ms[mi].Queue, j)
			all = append(all, j)
			placed = append(placed, mi)
		}
		// 3. Scheduling passes on every machine.
		for _, m := range ms {
			if _, err := m.Schedule(now, m.spec.Policy, est, nil, nil); err != nil {
				return nil, fmt.Errorf("metasim: %s: %w", m.spec.Name, err)
			}
		}
	}

	// Metrics.
	if len(all) == 0 {
		return res, nil
	}
	var waitSum float64
	perWait := make([]float64, len(specs))
	perJobs := make([]int, len(specs))
	perWork := make([]int64, len(specs))
	first, last := all[0].SubmitTime, int64(0)
	for k, j := range all {
		w := float64(j.WaitTime())
		waitSum += w
		if w/60 > res.MaxWaitMin {
			res.MaxWaitMin = w / 60
		}
		mi := placed[k]
		perWait[mi] += w
		perJobs[mi]++
		perWork[mi] += j.Work()
		if j.EndTime > last {
			last = j.EndTime
		}
	}
	res.MeanWaitMin = waitSum / float64(len(all)) / 60
	span := last - first
	for i, s := range specs {
		mr := MachineResult{Name: s.Name, Jobs: perJobs[i]}
		if perJobs[i] > 0 {
			mr.MeanWaitMin = perWait[i] / float64(perJobs[i]) / 60
		}
		if span > 0 {
			mr.Utilization = float64(perWork[i]) / (float64(s.Nodes) * float64(span))
		}
		res.Machines = append(res.Machines, mr)
	}
	return res, nil
}

func anyRunning(ms []*machine) bool {
	for _, m := range ms {
		if len(m.Running) > 0 || len(m.Queue) > 0 {
			return true
		}
	}
	return false
}

// snapshot captures broker-visible state for every machine at time now.
func snapshot(ms []*machine, now int64, est sim.Estimator) []MachineState {
	out := make([]MachineState, len(ms))
	for i, m := range ms {
		st := MachineState{
			Name:    m.spec.Name,
			Nodes:   m.spec.Nodes,
			Free:    m.Free,
			Queue:   append([]*workload.Job(nil), m.Queue...),
			Running: append([]*workload.Job(nil), m.Running...),
		}
		for _, q := range m.Queue {
			st.QueuedWork += int64(q.Nodes) * est(q, 0)
		}
		for _, r := range m.Running {
			age := now - r.StartTime
			remaining := est(r, age) - age
			if remaining < 1 {
				remaining = 1
			}
			st.RunningWork += int64(r.Nodes) * remaining
		}
		out[i] = st
	}
	return out
}

// candidates returns the machine indices that can ever run the job.
func candidates(ms []*machine, j *workload.Job) []int {
	var out []int
	for i, m := range ms {
		if j.Nodes <= m.spec.Nodes {
			out = append(out, i)
		}
	}
	return out
}

// --- Routers ---

// RoundRobin cycles through the candidate machines.
type RoundRobin struct{ n int }

// Name implements Router.
func (*RoundRobin) Name() string { return "round-robin" }

// Route implements Router.
func (r *RoundRobin) Route(now int64, j *workload.Job, states []MachineState) int {
	r.n++
	return r.n % len(states)
}

// Random routes uniformly at random (deterministic per seed).
type Random struct{ Rng *rand.Rand }

// NewRandom creates a seeded random router.
func NewRandom(seed int64) *Random { return &Random{Rng: rand.New(rand.NewSource(seed))} }

// Name implements Router.
func (*Random) Name() string { return "random" }

// Route implements Router.
func (r *Random) Route(now int64, j *workload.Job, states []MachineState) int {
	return r.Rng.Intn(len(states))
}

// LeastWork routes to the machine with the least outstanding work (queued
// plus estimated remaining running work) per node — the informed baseline
// that needs no forward simulation.
type LeastWork struct{}

// Name implements Router.
func (LeastWork) Name() string { return "least-work" }

// Route implements Router.
func (LeastWork) Route(now int64, j *workload.Job, states []MachineState) int {
	best := 0
	score := func(st MachineState) float64 {
		return float64(st.QueuedWork+st.RunningWork) / float64(st.Nodes)
	}
	bestScore := score(states[0])
	for i := 1; i < len(states); i++ {
		if s := score(states[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// PredictedTurnaround is the paper's proposal: forward-simulate each
// candidate machine's scheduler (§3) and submit where predicted wait +
// predicted run time is smallest.
type PredictedTurnaround struct {
	// Pred supplies run-time predictions for the virtual simulations.
	Pred predict.Predictor
	// Policy must match the machines' scheduling policy.
	Policy sim.Policy
}

// Name implements Router.
func (PredictedTurnaround) Name() string { return "predicted-turnaround" }

// Route implements Router.
func (p PredictedTurnaround) Route(now int64, j *workload.Job, states []MachineState) int {
	best := 0
	bestTurn := int64(-1)
	for i, st := range states {
		c := j.Clone()
		c.SubmitTime = now
		queue := append(append([]*workload.Job(nil), st.Queue...), c)
		wait, err := waitpred.PredictWait(now, c, queue, st.Running,
			st.Nodes, p.Policy, p.Pred, nil, 0)
		if err != nil {
			continue
		}
		turn := wait + predict.Estimate(p.Pred, c, 0, predict.DefaultRuntime)
		if bestTurn < 0 || turn < bestTurn {
			best, bestTurn = i, turn
		}
	}
	return best
}

// Static checks.
var (
	_ Router = (*RoundRobin)(nil)
	_ Router = (*Random)(nil)
	_ Router = LeastWork{}
	_ Router = PredictedTurnaround{}
)
