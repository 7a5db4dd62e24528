package service

// Re-selection wiring: the service's predictor stable, the shadow scorer
// that ranks it on every /v1/observe, and the controller that — when
// enabled — switches the serving predictor to the scoreboard winner on
// confirmed drift. GET /v1/stable exposes the scoreboard and the switch
// history; the accuracy.shadow.* and accuracy.reselect.* gauge families
// surface on /v1/metrics.

import (
	"net/http"

	"repro/internal/obs/accuracy"
	"repro/internal/predict"
	"repro/internal/predict/downey"
	"repro/internal/predict/gibbons"
	"repro/internal/workload"
)

// ReselectOptions configures EnableReselect. Zero values take defaults.
type ReselectOptions struct {
	// CostRatio is the asymmetric cost ratio applied to every accuracy
	// stream (serving, shadow, and the /v1/accuracy tracker): how many
	// seconds of over-prediction one second of under-prediction is worth.
	// 0 keeps stats.DefaultCostRatio.
	CostRatio float64
	// Window is the accuracy window for the serving and shadow streams;
	// it also becomes the serving drift detector's baseline requirement,
	// so the detector is armed one window after a switch or cold start.
	// 0 keeps the tracker default.
	Window int
	// MinDwell is the minimum number of completions between switches.
	// 0 defaults to 2× the serving window.
	MinDwell int64
	// Hysteresis is the fractional scoreboard margin a challenger must
	// win by. 0 keeps accuracy.DefaultHysteresis.
	Hysteresis float64
	// Switching enables automatic re-selection. When false the stable is
	// shadow-scored only: the scoreboard and drift telemetry stay live
	// but the serving predictor never changes.
	Switching bool
}

// EnableReselect attaches the predictor stable to the server: the core
// template predictor (serving, scored but trained by the observe path
// itself), Gibbons, Downey, maximum run times, the global mean, and the
// smith>maxrt chain. Every completion POSTed to /v1/observe scores the
// serving predictor and the whole stable; with opts.Switching the
// controller swaps the serving predictor to the scoreboard winner on
// confirmed deterioration, and /v1/predict, /v1/predict/batch, and
// /v1/predictwait follow the switch.
//
// Call it during configuration, before the handler serves traffic.
func (s *Server) EnableReselect(opts ReselectOptions) {
	var topt []accuracy.Option
	if opts.CostRatio > 0 {
		topt = append(topt, accuracy.WithCostRatio(opts.CostRatio))
		// Keep /v1/accuracy's streams costed consistently with the stable.
		s.acc = s.newAccuracyTracker(accuracy.WithCostRatio(opts.CostRatio))
	}
	if opts.Window > 0 {
		topt = append(topt, accuracy.WithWindow(opts.Window))
	}
	maxrt := predict.MaxRuntime{}
	chain := predict.NewChain(s.pred, maxrt)
	gib := gibbons.New()
	dow := downey.New(downey.ConditionalAverage)
	mean := &predict.RunningMean{}
	stable := []accuracy.Member{
		// The core predictor is External: handleObserve already feeds every
		// completion to it, so the shadow scores it without a second Observe.
		// The chain shares the core instance, so it is External for the same
		// reason (MaxRuntime is stateless; there is nothing else to train).
		{Name: s.pred.Name(), P: s.pred, External: true},
		{Name: gib.Name(), P: gib},
		{Name: dow.Name(), P: dow},
		{Name: maxrt.Name(), P: maxrt},
		{Name: mean.Name(), P: mean},
		{Name: chain.Name(), P: chain, External: true},
	}
	shadow := accuracy.NewShadow(stable, accuracy.New(topt...), 0)
	sopt := make([]accuracy.Option, len(topt), len(topt)+2)
	copy(sopt, topt)
	sopt = append(sopt,
		accuracy.WithMinBaseline(servingWindow(opts.Window)),
		accuracy.WithOnDrift(func(key string, d accuracy.Drift) {
			s.log.Warn("serving predictor drift", "key", key,
				"window_mean_seconds", d.WindowMean, "baseline_mean_seconds", d.BaselineMean,
				"p", d.P, "t", d.T)
		}))
	s.resel = accuracy.NewReselector(predict.NewSwitchable(s.pred), shadow,
		accuracy.New(sopt...), accuracy.ReselectConfig{
			MinDwell:   opts.MinDwell,
			Hysteresis: opts.Hysteresis,
			Frozen:     !opts.Switching,
			OnSwitch: func(ev accuracy.SwitchEvent) {
				s.log.Warn("serving predictor reselected", "from", ev.From, "to", ev.To,
					"seq", ev.Seq, "from_score_seconds", ev.FromScore,
					"to_score_seconds", ev.ToScore, "completions", ev.Completions)
			},
		})
	s.reselSwitching = opts.Switching
}

// servingWindow resolves the serving tracker's drift baseline: the
// configured window, or the tracker default when unset.
func servingWindow(w int) int {
	if w > 0 {
		return w
	}
	return accuracy.DefaultWindow
}

// Reselector returns the attached controller, or nil before EnableReselect.
func (s *Server) Reselector() *accuracy.Reselector { return s.resel }

// switched returns the predictor a re-selection switch has installed in
// place of the core template predictor (see accuracy.Reselector.Switched),
// or nil while the core predictor serves; callers then predict with s.pred
// lock-free.
func (s *Server) switched() predict.Predictor {
	if s.resel == nil {
		return nil
	}
	return s.resel.Switched(s.pred)
}

// predictWith is one /v1/predict answer from a switched-in predictor:
// no template details, the job's maximum run time when it has no
// estimate, and the predictor named.
func (s *Server) predictWith(p predict.Predictor, j *workload.Job, age int64) PredictResponse {
	sec, ok := p.Predict(j, age)
	resp := PredictResponse{OK: ok, Seconds: sec, Predictor: p.Name()}
	if ok {
		s.mPredictOK.Inc()
	} else {
		s.mPredictMiss.Inc()
		resp.Seconds = j.MaxRunTime
	}
	return resp
}

// StableResponse is the GET /v1/stable payload: the serving predictor, the
// live shadow scoreboard (window tail scores, lower is better), and the
// retained switch events, oldest first.
type StableResponse struct {
	Enabled    bool                   `json:"enabled"`
	Reselect   bool                   `json:"reselect"` // switching armed (false = shadow-only)
	Serving    string                 `json:"serving,omitempty"`
	CostRatio  float64                `json:"costRatio,omitempty"`
	Window     int                    `json:"window,omitempty"`
	Switches   int64                  `json:"switches"`
	Scoreboard []accuracy.BoardEntry  `json:"scoreboard"`
	Events     []accuracy.SwitchEvent `json:"events"`
}

func (s *Server) handleStable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := StableResponse{
		Scoreboard: []accuracy.BoardEntry{},
		Events:     []accuracy.SwitchEvent{},
	}
	if s.resel != nil {
		resp.Enabled = true
		resp.Reselect = s.reselSwitching
		resp.Serving = s.resel.Name()
		resp.CostRatio = s.resel.Serving().CostRatio()
		resp.Window = s.resel.Serving().Window()
		resp.Switches = s.resel.Switches()
		resp.Scoreboard = s.resel.Shadow().Scoreboard()
		resp.Events = s.resel.Events()
	}
	writeJSON(w, http.StatusOK, resp)
}
