package accuracy

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/workload"
)

// Shadow scores an entire predictor stable against every realized run
// time: on each completion it asks every member for its estimate first,
// then records each member's signed error, then lets the members learn
// from the completion. The result is a live per-predictor scoreboard —
// the same tail-aware KeySnapshot the serving tracker produces, one
// stream per member under the key "shadow.<name>" — from which the
// re-selection controller picks a successor when the serving predictor
// drifts.
//
// Members are scored through predict.Estimate (maximum-run-time fallback,
// age clamping), not raw Predict: the scoreboard compares what each
// member would actually have told the scheduler, and every member is
// scored on every completion so the windows stay comparable.
//
// A Shadow is NOT safe for concurrent use; callers serialize (the
// Reselector under its mutex, the simulator single-threaded).
type Shadow struct {
	tracker    *Tracker
	members    []Member
	keys       []string  // "shadow." + member name, precomputed
	estimates  []float64 // scratch: this completion's per-member estimates
	minSamples int
}

// Member is one predictor in the stable.
type Member struct {
	Name string
	P    predict.Predictor
	// External marks a member whose Observe the caller drives itself —
	// the service already feeds completions to its core predictor, so the
	// shadow must score it without observing it a second time.
	External bool
}

// ShadowKey returns the tracker key a member's scores live under.
func ShadowKey(name string) string { return "shadow." + name }

// NewShadow builds a shadow scorer over members, recording into tr (which
// supplies the window size, cost ratio, and drift configuration for the
// member streams). minSamples is the window depth a member needs before
// the scoreboard will rank it; values below 1 default to tr.Window().
func NewShadow(members []Member, tr *Tracker, minSamples int) *Shadow {
	if tr == nil {
		tr = New()
	}
	if minSamples < 1 {
		minSamples = tr.Window()
	}
	sh := &Shadow{
		tracker:    tr,
		members:    members,
		keys:       make([]string, len(members)),
		estimates:  make([]float64, len(members)),
		minSamples: minSamples,
	}
	for i, m := range members {
		sh.keys[i] = ShadowKey(m.Name)
	}
	return sh
}

// Members returns the stable in registration order.
func (sh *Shadow) Members() []Member { return sh.members }

// Member returns the named member's predictor, or nil.
func (sh *Shadow) Member(name string) predict.Predictor {
	for _, m := range sh.members {
		if m.Name == name {
			return m.P
		}
	}
	return nil
}

// ScoreAndObserve feeds one completion through the stable: every member
// predicts first (no member sees the completion before all have
// estimated), every estimate is scored against actual, and finally the
// non-external members observe the job.
func (sh *Shadow) ScoreAndObserve(j *workload.Job, actual float64) {
	for i, m := range sh.members {
		sh.estimates[i] = float64(predict.Estimate(m.P, j, 0, predict.DefaultRuntime))
	}
	for i := range sh.members {
		sh.tracker.Record(sh.keys[i], sh.estimates[i], actual)
	}
	for _, m := range sh.members {
		if !m.External {
			m.P.Observe(j)
		}
	}
}

// BoardEntry is one scoreboard row.
type BoardEntry struct {
	Name string `json:"name"`
	// Eligible reports the member has at least the configured window
	// depth of scores; ineligible members sort last and are never
	// selected.
	Eligible bool `json:"eligible"`
	// Score is the member's window tail score: the TARE composite over
	// its recent errors only. Lifetime tails would keep a stale incumbent
	// ranked high long after a regime change; the window is the scoreboard.
	Score    float64     `json:"score"`
	Snapshot KeySnapshot `json:"snapshot"`
}

// Scoreboard ranks the stable: eligible members by ascending window tail
// score (lower is better), then ineligible members, ties broken by name
// so the order is deterministic.
func (sh *Shadow) Scoreboard() []BoardEntry {
	snap := sh.tracker.Snapshot()
	board := make([]BoardEntry, 0, len(sh.members))
	for i, m := range sh.members {
		ks := snap[sh.keys[i]]
		board = append(board, BoardEntry{
			Name:     m.Name,
			Eligible: ks.WindowCount >= sh.minSamples,
			Score:    ks.WindowTailScore,
			Snapshot: ks,
		})
	}
	sort.Slice(board, func(a, b int) bool {
		x, y := board[a], board[b]
		if x.Eligible != y.Eligible {
			return x.Eligible
		}
		if x.Score < y.Score {
			return true
		}
		if y.Score < x.Score {
			return false
		}
		return x.Name < y.Name
	})
	return board
}

// Best returns the top eligible scoreboard entry.
func (sh *Shadow) Best() (BoardEntry, bool) {
	board := sh.Scoreboard()
	if len(board) == 0 || !board[0].Eligible {
		return BoardEntry{}, false
	}
	return board[0], true
}

// Publish refreshes the shadow streams' gauges on reg as the
// accuracy.shadow.<member>.* family.
func (sh *Shadow) Publish(reg *obs.Registry) { sh.tracker.Publish(reg) }
