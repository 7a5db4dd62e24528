// Package service exposes the run-time predictor and the queue wait-time
// predictor over HTTP/JSON — the deployment surface the paper's §1
// motivates: "estimates of queue wait times are useful to guide resource
// selection when several systems are available, to co-allocate resources
// from multiple systems, to schedule other activities, and so forth."
// A scheduler (or metascheduler) feeds completions to /v1/observe and asks
// /v1/predict for run times (/v1/predict/batch to score a whole queue in
// one request) and /v1/predictwait for queue waits. With an admission
// controller attached (SetAdmission), POST /v1/admit turns those wait
// estimates into admit/shed decisions against per-class SLO budgets.
//
// The server holds no lock of its own. The core predictor keeps its
// categories in a histstore.Store, so observations and predictions run
// concurrently: predictions are lock-free snapshot reads, and observes
// serialize only per store shard. The one serialized path is re-selection
// (EnableReselect): after a switch to a stable member that is not safe
// for concurrent use, predictions run under the re-selection controller's
// mutex, the one the observes that train the stable hold.
//
// Every endpoint is instrumented through an internal/obs registry
// (request counts, error counts, latency histograms, predictor hit/miss
// tallies); GET /v1/metrics returns the full snapshot as JSON or, under
// content negotiation, Prometheus text exposition. EnablePprof mounts
// net/http/pprof under /debug/pprof/.
//
// With SetTracer attached, every request opens a root span and the hot
// paths decompose into child spans (template matching, shard reads, WAL
// appends, the wait-time forward simulation); GET /v1/traces returns the
// ring of recently kept traces. Every completion POSTed to /v1/observe
// also scores the prediction the server would have made for it, feeding
// the accuracy tracker behind GET /v1/accuracy — the paper's Tables 4–9
// error columns, computed live, with drift warnings in the log.
//
// With EnableReselect (reselect.go), every completion additionally
// shadow-scores a whole predictor stable — template predictor, Gibbons,
// Downey, maximum run times, global mean, and the smith>maxrt chain — and
// GET /v1/stable serves the live scoreboard. When switching is armed, a
// confirmed deterioration of the serving predictor swaps it for the
// scoreboard winner; /v1/predict, /v1/predict/batch, and /v1/predictwait
// follow the switch, and accuracy.reselect.* counters plus structured
// switch events record the history.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/obs/accuracy"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// JobJSON is the wire form of a job. Fields mirror workload.Job; times are
// seconds. For running jobs StartTime must be set.
type JobJSON struct {
	ID         int    `json:"id"`
	Type       string `json:"type,omitempty"`
	Queue      string `json:"queue,omitempty"`
	Class      string `json:"class,omitempty"`
	User       string `json:"user,omitempty"`
	Script     string `json:"script,omitempty"`
	Executable string `json:"executable,omitempty"`
	Arguments  string `json:"arguments,omitempty"`
	NetAdaptor string `json:"netAdaptor,omitempty"`
	Nodes      int    `json:"nodes"`
	SubmitTime int64  `json:"submitTime,omitempty"`
	RunTime    int64  `json:"runTime,omitempty"`
	MaxRunTime int64  `json:"maxRunTime,omitempty"`
	StartTime  int64  `json:"startTime,omitempty"`
}

// job converts wire form to the internal model.
func (j *JobJSON) job() workload.Job {
	return workload.Job{
		ID: j.ID, Type: j.Type, Queue: j.Queue, Class: j.Class, User: j.User,
		Script: j.Script, Executable: j.Executable, Arguments: j.Arguments,
		NetAdaptor: j.NetAdaptor, Nodes: j.Nodes, SubmitTime: j.SubmitTime,
		RunTime: j.RunTime, MaxRunTime: j.MaxRunTime, StartTime: j.StartTime,
	}
}

// toJob is job on the heap.
func (j *JobJSON) toJob() *workload.Job {
	jb := j.job()
	return &jb
}

// snapshot converts a simulating endpoint's queue and running set to the
// internal model. The jobs live in one backing array allocated for the
// request, and the two returned slices point into its slots.
func snapshot(queue, running []JobJSON) (q, r []*workload.Job) {
	jobs := make([]workload.Job, len(queue)+len(running))
	ptrs := make([]*workload.Job, len(jobs))
	for i := range queue {
		jobs[i] = queue[i].job()
	}
	for i := range running {
		jobs[len(queue)+i] = running[i].job()
	}
	for i := range jobs {
		ptrs[i] = &jobs[i]
	}
	return ptrs[:len(queue):len(queue)], ptrs[len(queue):]
}

// Server is the HTTP prediction service.
type Server struct {
	pred         *core.Predictor
	machineNodes int
	observations atomic.Int64
	reg          *obs.Registry
	log          *obs.Logger
	pprof        bool
	tracer       *trace.Tracer // nil until SetTracer; nil tracer is inert
	acc          *accuracy.Tracker
	adm          *admission.Controller // nil until SetAdmission; /v1/admit 503s

	// templateKeys[i] is the accuracy stream key of the predictor's
	// template i, built once here rather than on every observe.
	templateKeys []string

	// Re-selection (reselect.go): nil until EnableReselect. The controller
	// serializes the shadow stable, and predictions by a switched-in
	// member, behind its own mutex.
	resel          *accuracy.Reselector
	reselSwitching bool // false = shadow-only (scoreboard without switching)

	// Cached instrument handles (allocated once in New, not per request).
	mObserve     *obs.Counter
	mPredictOK   *obs.Counter
	mPredictMiss *obs.Counter
	mWaitErrors  *obs.Counter
}

// New creates a Server around a predictor for a machine of the given size.
func New(pred *core.Predictor, machineNodes int) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		pred: pred, machineNodes: machineNodes,
		reg:          reg,
		log:          obs.Nop(),
		mObserve:     reg.Counter("service.observe.jobs"),
		mPredictOK:   reg.Counter("service.predict.hits"),
		mPredictMiss: reg.Counter("service.predict.misses"),
		mWaitErrors:  reg.Counter("service.predictwait.errors"),
	}
	s.acc = s.newAccuracyTracker()
	s.templateKeys = make([]string, len(pred.Templates()))
	for i := range s.templateKeys {
		s.templateKeys[i] = "template_" + strconv.Itoa(i)
	}
	return s
}

// newAccuracyTracker builds an accuracy tracker wired to the server's
// drift-warning log, with any extra options appended.
func (s *Server) newAccuracyTracker(opts ...accuracy.Option) *accuracy.Tracker {
	opts = append(opts, accuracy.WithOnDrift(func(key string, d accuracy.Drift) {
		s.log.Warn("prediction accuracy drift", "key", key,
			"window_mean_seconds", d.WindowMean, "baseline_mean_seconds", d.BaselineMean,
			"p", d.P, "t", d.T)
	}))
	return accuracy.New(opts...)
}

// SetTracer attaches a request tracer: every endpoint opens a root span,
// the tracer's counters register on the server's registry, and kept traces
// become readable at GET /v1/traces. A nil tracer (the default) keeps the
// span plumbing fully inert.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.tracer = t
	if t != nil {
		t.SetMetrics(s.reg)
	}
}

// Accuracy returns the server's prediction-accuracy tracker (never nil),
// so embedders can feed completions observed outside the HTTP surface.
func (s *Server) Accuracy() *accuracy.Tracker { return s.acc }

// SetStore registers the history store's metrics (histstore.*) with the
// server's registry. st should be the store the predictor was built with
// (core.WithStore); checkpoints snapshot the predictor's store either way.
func (s *Server) SetStore(st *histstore.Store) {
	if st != nil {
		st.SetMetrics(s.reg)
	}
}

// SetLogger replaces the server's logger (default: discard).
func (s *Server) SetLogger(l *obs.Logger) {
	if l != nil {
		s.log = l
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on handlers
// returned by subsequent Handler calls.
func (s *Server) EnablePprof() { s.pprof = true }

// Metrics returns the server's metrics registry, so embedders (cmd/qwaitd)
// can log periodic snapshots or add their own series.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the service's HTTP handler. Every endpoint is wrapped
// with request/error counters and a latency histogram named after it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/observe", s.instrument("observe", s.handleObserve))
	mux.HandleFunc("/v1/predict", s.instrument("predict", s.handlePredict))
	mux.HandleFunc("/v1/predict/batch", s.instrument("predict_batch", s.handlePredictBatch))
	mux.HandleFunc("/v1/predictwait", s.instrument("predictwait", s.handlePredictWait))
	mux.HandleFunc("/v1/admit", s.instrument("admit", s.handleAdmit))
	mux.HandleFunc("/v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	mux.HandleFunc("/v1/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/v1/traces", s.instrument("traces", s.handleTraces))
	mux.HandleFunc("/v1/accuracy", s.instrument("accuracy", s.handleAccuracy))
	mux.HandleFunc("/v1/stable", s.instrument("stable", s.handleStable))
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response status for error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint handler with a request counter, an error
// counter (status ≥ 400), and a latency histogram, all named
// http.<endpoint>.*.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.Counter("http." + name + ".requests")
	errors := s.reg.Counter("http." + name + ".errors")
	latency := s.reg.Histogram("http." + name + ".latency_seconds")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow wallclock real HTTP request latency is exactly what this measures
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx, sp := s.tracer.StartRoot(r.Context(), "http."+name)
		if sp != nil {
			r = r.WithContext(ctx)
		}
		h(sw, r)
		if sp != nil {
			sp.SetAttrInt("status", int64(sw.status))
			sp.End()
		}
		elapsed := time.Since(start).Seconds() //lint:allow wallclock real HTTP request latency is exactly what this measures
		requests.Inc()
		if sw.status >= 400 {
			errors.Inc()
		}
		latency.Observe(elapsed)
		if s.log.Enabled(obs.LevelDebug) {
			s.log.Debug("request", "endpoint", name, "status", sw.status,
				"seconds", elapsed)
		}
	}
}

// handleMetrics serves the full metrics snapshot, refreshing the predictor
// gauges (category count, stored history size, template count) and the
// accuracy gauges first. The representation is negotiated: JSON by
// default, Prometheus text exposition when the Accept header asks for
// text/plain or application/openmetrics-text (or ?format=prometheus),
// each with its explicit Content-Type.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.reg.Gauge("predictor.categories").SetInt(int64(s.pred.Categories()))
	s.reg.Gauge("predictor.history_size").SetInt(int64(s.pred.HistorySize()))
	s.reg.Gauge("predictor.templates").SetInt(int64(len(s.pred.Templates())))
	s.pred.Store().RefreshMetrics()
	s.acc.Publish(s.reg)
	if s.resel != nil {
		s.resel.Serving().Publish(s.reg) // accuracy.serving.*
		s.resel.Shadow().Publish(s.reg)  // accuracy.shadow.<member>.*
		s.resel.Publish(s.reg)           // accuracy.reselect.*
	}
	snap := s.reg.Snapshot()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w) // client gone mid-write; nothing to do
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// wantsPrometheus decides the /v1/metrics representation: an explicit
// ?format=prometheus (or json) query wins, otherwise the first recognized
// media type in the Accept header does, and the default stays JSON so
// existing scrapers keep working.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "openmetrics":
		return true
	case "json":
		return false
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "application/json":
			return false
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// TracesResponse is the GET /v1/traces payload: the tracer's ring of
// recently kept traces, newest first.
type TracesResponse struct {
	Enabled bool          `json:"enabled"`
	Traces  []trace.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := TracesResponse{Enabled: s.tracer.Enabled(), Traces: s.tracer.Recent()}
	if resp.Traces == nil {
		resp.Traces = []trace.Trace{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// AccuracyResponse is the GET /v1/accuracy payload: per-key prediction
// accuracy summaries (signed error moments, absolute-error quantiles,
// over/under counts, drift state).
type AccuracyResponse struct {
	Window int                             `json:"window"`
	Keys   map[string]accuracy.KeySnapshot `json:"keys"`
}

func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, AccuracyResponse{
		Window: s.acc.Window(),
		Keys:   s.acc.Snapshot(),
	})
}

// handleCheckpoint snapshots the predictor's history store. A memory-only
// store has nowhere to write, so checkpointing it fails.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	st := s.pred.Store()
	if err := st.Snapshot(r.Context()); err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"saved": st.Dir()})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorJSON writes a JSON error envelope.
func errorJSON(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds one request body, so no request can make the daemon
// buffer unbounded input. It is over four times a full maxPredictBatch
// batch of SWF-shaped jobs (~1.7 MiB; see TestPredictBatchEndpoint).
const maxBodyBytes = 8 << 20

// decode reads a JSON request body of at most maxBodyBytes into v.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			errorJSON(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return false
		}
		errorJSON(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

// ObserveRequest feeds one completed job to the predictor.
type ObserveRequest struct {
	Job JobJSON `json:"job"`
}

// validateObserved rejects a reported completion whose fields would
// corrupt the durable history: run time and node count must be positive
// and the user-supplied maximum non-negative — the values the store (and
// recovery) would refuse, rejected before they are journaled. The empty
// string means the job may enter the history.
func validateObserved(job *workload.Job) string {
	switch {
	case job.RunTime <= 0:
		return "completed job needs a positive runTime"
	case job.Nodes <= 0:
		return "completed job needs a positive nodes count"
	case job.MaxRunTime < 0:
		return "maxRunTime must not be negative"
	}
	return ""
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !decode(w, r, &req) {
		return
	}
	job := req.Job.toJob()
	if msg := validateObserved(job); msg != "" {
		errorJSON(w, http.StatusBadRequest, "%s", msg)
		return
	}
	ctx := r.Context()
	// Score the prediction this completion would have received before it
	// enters the history (afterwards the job would predict itself): the
	// online counterpart of the paper's Tables 4–9 error columns, tracked
	// for the whole stream and for the winning template.
	if det, ok := s.pred.PredictDetailedCtx(ctx, job, 0); ok {
		err, actual := float64(det.Seconds), float64(job.RunTime)
		s.acc.Record("all", err, actual)
		s.acc.Record(s.templateKeys[det.Template], err, actual)
	}
	// The re-selection pipeline also scores pre-observe: the serving
	// estimate and every shadow member's estimate are the ones a queued
	// job would have received at this instant. Switch events are stamped
	// with arrival wall time — the service's event clock.
	if s.resel != nil {
		s.resel.ObserveAt(ctx, float64(time.Now().Unix()), job) //lint:allow wallclock switch events record real arrival time
	}
	s.pred.ObserveCtx(ctx, job)
	s.observations.Add(1)
	s.mObserve.Inc()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// PredictRequest asks for a run-time prediction.
type PredictRequest struct {
	Job JobJSON `json:"job"`
	Age int64   `json:"age,omitempty"` // seconds already executed
}

// PredictResponse carries the prediction. When the history cannot provide
// one, OK is false and Seconds falls back to the job's maximum run time
// (zero when there is none). With re-selection enabled, Predictor names
// the serving predictor that produced the estimate; a value other than
// the core template predictor means a switch is in effect, and the
// template/interval details are absent.
type PredictResponse struct {
	OK        bool    `json:"ok"`
	Seconds   int64   `json:"seconds"`
	Interval  float64 `json:"interval,omitempty"` // CI half-width, seconds
	Template  int     `json:"template,omitempty"`
	Points    int     `json:"points,omitempty"`
	Predictor string  `json:"predictor,omitempty"` // serving predictor (re-selection only)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decode(w, r, &req) {
		return
	}
	job := req.Job.toJob()
	// A re-selection switch replaces the serving predictor: predictions
	// come from the scoreboard winner (no template details) until the
	// controller switches again.
	if p := s.switched(); p != nil {
		writeJSON(w, http.StatusOK, s.predictWith(p, job, req.Age))
		return
	}
	det, ok := s.pred.PredictDetailedCtx(r.Context(), job, req.Age)
	var servedBy string
	if s.resel != nil {
		servedBy = s.pred.Name()
	}
	if ok {
		s.mPredictOK.Inc()
	} else {
		s.mPredictMiss.Inc()
	}
	resp := PredictResponse{OK: ok, Predictor: servedBy}
	if ok {
		resp.Seconds = det.Seconds
		resp.Interval = det.Interval
		resp.Template = det.Template
		resp.Points = det.N
	} else {
		resp.Seconds = job.MaxRunTime
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxPredictBatch bounds one /v1/predict/batch request. It is generous —
// one scheduling pass over a large queue fits comfortably — while keeping a
// single request from monopolizing the server.
const maxPredictBatch = 10000

// PredictBatchRequest asks for run-time predictions for many jobs at once.
// Batching amortizes request overhead and category resolution: within one
// batch every distinct category is resolved against the history at most
// once, so all jobs are scored from the same consistent snapshot — exactly
// what a scheduler wants when ranking a whole queue in one pass.
type PredictBatchRequest struct {
	Jobs []PredictRequest `json:"jobs"`
}

// PredictBatchResponse carries one PredictResponse per requested job, in
// request order.
type PredictBatchResponse struct {
	Results []PredictResponse `json:"results"`
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req PredictBatchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Jobs) > maxPredictBatch {
		errorJSON(w, http.StatusBadRequest, "batch of %d jobs exceeds limit %d",
			len(req.Jobs), maxPredictBatch)
		return
	}
	items := make([]core.BatchItem, len(req.Jobs))
	for i := range req.Jobs {
		items[i] = core.BatchItem{Job: req.Jobs[i].Job.toJob(), Age: req.Jobs[i].Age}
	}
	resp := PredictBatchResponse{Results: make([]PredictResponse, len(items))}
	if p := s.switched(); p != nil {
		// Switched serving predictor: score the batch member by member (no
		// category resolution to amortize outside the core predictor).
		for i, it := range items {
			resp.Results[i] = s.predictWith(p, it.Job, it.Age)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res := s.pred.PredictDetailedBatchCtx(r.Context(), items)
	var servedBy string
	if s.resel != nil {
		servedBy = s.pred.Name()
	}
	for i, br := range res {
		pr := PredictResponse{OK: br.OK, Predictor: servedBy}
		if br.OK {
			s.mPredictOK.Inc()
			pr.Seconds = br.Seconds
			pr.Interval = br.Interval
			pr.Template = br.Template
			pr.Points = br.N
		} else {
			s.mPredictMiss.Inc()
			pr.Seconds = items[i].Job.MaxRunTime
		}
		resp.Results[i] = pr
	}
	writeJSON(w, http.StatusOK, resp)
}

// PredictWaitRequest asks for a queue wait prediction for Target, given the
// scheduler's current queue (arrival order, including Target) and running
// set. Policy is one of sched.ByName's names; it defaults to "Backfill".
type PredictWaitRequest struct {
	Now     int64     `json:"now"`
	Policy  string    `json:"policy,omitempty"`
	Target  JobJSON   `json:"target"`
	Queue   []JobJSON `json:"queue"`
	Running []JobJSON `json:"running"`
}

// PredictWaitResponse carries the predicted wait in seconds.
type PredictWaitResponse struct {
	WaitSeconds  int64 `json:"waitSeconds"`
	StartSeconds int64 `json:"startSeconds"`
}

func (s *Server) handlePredictWait(w http.ResponseWriter, r *http.Request) {
	var req PredictWaitRequest
	if !decode(w, r, &req) {
		return
	}
	policyName := req.Policy
	if policyName == "" {
		policyName = "Backfill"
	}
	pol := sched.ByName(policyName)
	if pol == nil {
		errorJSON(w, http.StatusBadRequest, "unknown policy %q", policyName)
		return
	}
	queue, running := snapshot(req.Queue, req.Running)
	var target *workload.Job
	for _, j := range queue {
		if j.ID == req.Target.ID {
			target = j
		}
	}
	if target == nil {
		errorJSON(w, http.StatusBadRequest, "target (id %d) must appear in queue", req.Target.ID)
		return
	}
	// Wait predictions follow re-selection: the forward simulation runs the
	// predictor currently serving, so a drift-driven switch changes wait
	// estimates on the same completion.
	var rp predict.Predictor = s.pred
	if p := s.switched(); p != nil {
		rp = p
	}
	start, err := waitpred.PredictStartCtx(r.Context(), req.Now, target, queue, running,
		s.machineNodes, pol, rp, predict.MaxRuntime{}, 0)
	if err != nil {
		s.mWaitErrors.Inc()
		errorJSON(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, PredictWaitResponse{
		WaitSeconds:  start - target.SubmitTime,
		StartSeconds: start,
	})
}

// StatsResponse reports service counters.
type StatsResponse struct {
	Categories   int   `json:"categories"`
	Observations int64 `json:"observations"`
	MachineNodes int   `json:"machineNodes"`
	Templates    int   `json:"templates"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Categories:   s.pred.Categories(),
		Observations: s.observations.Load(),
		MachineNodes: s.machineNodes,
		Templates:    len(s.pred.Templates()),
	})
}
