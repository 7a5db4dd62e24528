// Command qwaitd serves run-time and queue wait-time predictions over
// HTTP/JSON — the deployment surface for the paper's resource-selection and
// co-allocation use cases (§1). A scheduler reports completions and asks
// for predictions:
//
//	qwaitd -addr :8642 -nodes 512 [-templates set.json] [-warm trace.swf]
//	       [-data dir] [-snapshot-interval 5m] [-pprof]
//	       [-metrics-interval 30s] [-log-level info]
//	       [-trace-sample 0.01] [-trace-slow 250ms] [-trace-ring 64]
//	       [-admit-classes interactive=10m:always,standard=1h:shed]
//	       [-admit-headroom 1.5] [-admit-policy Backfill]
//	       [-admit-overflow batch] [-admit-token-window 1h] [-admit-state]
//	       [-shadow] [-reselect] [-tail-cost 2] [-reselect-window 64]
//	       [-reselect-dwell 128]
//
//	POST /v1/observe      {"job": {...}}                 record a completion
//	POST /v1/predict      {"job": {...}, "age": 120}     run-time prediction
//	POST /v1/predict/batch {"jobs": [{"job": {...}}, ...]} score many jobs at once
//	POST /v1/predictwait  {"now":..., "policy":"Backfill",
//	                       "target":{...}, "queue":[...], "running":[...]}
//	POST /v1/admit        {"now":..., "job":{...},
//	                       "queue":[...], "running":[...]}  admit/shed decision
//	POST /v1/checkpoint                                   snapshot the store
//	GET  /v1/stats                                        service counters
//	GET  /v1/metrics                                      metrics (JSON or Prometheus text)
//	GET  /v1/traces                                       recently kept request traces
//	GET  /v1/accuracy                                     online prediction-accuracy stats
//	GET  /v1/stable                                       predictor scoreboard + switch events (-shadow/-reselect)
//	GET  /debug/pprof/                                    profiles (-pprof)
//
// Job objects carry the Table-2 characteristics (user, executable, queue,
// ...), nodes, and maxRunTime; see internal/service for the full schema.
//
// The category history lives in an internal/histstore store. Without
// -data it is memory-only and lost on exit (POST /v1/checkpoint fails).
// With -data the store is durable under that directory: every observation
// is journaled to a write-ahead log, snapshots are taken periodically
// (-snapshot-interval), on POST /v1/checkpoint, and on graceful shutdown,
// and a restart — even after a hard kill — recovers the exact history
// from snapshot + WAL.
//
// With -trace-sample and/or -trace-slow, requests are traced: each sampled
// (or slower-than-threshold) request keeps a span tree decomposing the
// handler into predictor, store, and simulation work, readable at
// /v1/traces; -trace-ring bounds how many traces are retained. Every
// observation also scores the prediction the daemon would have made for
// it, so /v1/accuracy reports live mean/RMS error, absolute-error
// quantiles, over/under counts, and drift state per stream, with drift
// transitions logged as warnings.
//
// With -admit-classes, the daemon runs a predictive SLO admission
// controller (internal/admission): POST /v1/admit estimates the job's
// queue wait by forward simulation under -admit-policy (plus, with
// -admit-state, the §5 state-based predictor) and decides admit/shed
// against the per-class budgets; -admit-headroom scales every budget,
// -admit-overflow names the spill-over class, and -admit-token-window
// sets the admission-token replenishment period. Decisions surface as
// admission.* counters on /v1/metrics and admission.decide trace spans.
//
// With -shadow, every observation also scores a whole predictor stable
// (template predictor, Gibbons, Downey, maximum run times, global mean,
// smith>maxrt) side by side; GET /v1/stable serves the live tail-score
// scoreboard and the accuracy.shadow.* gauges join /v1/metrics. -reselect
// additionally arms the drift-adaptive controller: when the serving
// predictor's error distribution deteriorates (Welch-t confirmed), the
// daemon switches to the scoreboard winner — predictions then come from,
// and are labeled with, the new predictor — with hysteresis and a
// -reselect-dwell completion floor between switches. -tail-cost sets the
// asymmetric cost ratio (how many over-prediction seconds one second of
// under-prediction is worth) used by every accuracy stream, and
// -reselect-window the scoring window.
//
// With -metrics-interval, a metrics snapshot is logged (logfmt, stderr)
// at that period.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/waitpred"
	"repro/internal/workload"
)

// app is the configured-but-not-yet-listening daemon, separated from main
// so the construction path is testable end to end.
type app struct {
	srv              *service.Server
	store            *histstore.Store // nil without -data
	addr             string
	pprofOn          bool
	metricsInterval  time.Duration
	snapshotInterval time.Duration
	logLevel         obs.Level
}

func main() {
	a, err := build(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qwaitd:", err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, a.logLevel)
	a.srv.SetLogger(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if a.metricsInterval > 0 {
		go logMetricsPeriodically(ctx, logger, a.srv.Metrics(), a.metricsInterval)
	}
	if a.store != nil && a.snapshotInterval > 0 {
		go snapshotPeriodically(ctx, logger, a.store, a.snapshotInterval)
	}
	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		logger.Error("listen failed", "addr", a.addr, "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pprof", a.pprofOn,
		"metrics_interval", a.metricsInterval)
	if err := a.srv.ServeListener(ctx, ln); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	// Graceful shutdown path: drain done, persist the history.
	if a.store != nil {
		if err := a.store.Snapshot(); err != nil {
			logger.Error("snapshot on shutdown failed", "err", err)
			os.Exit(1)
		}
		if err := a.store.Close(); err != nil {
			logger.Error("store close failed", "err", err)
			os.Exit(1)
		}
		logger.Info("history store snapshotted", "dir", a.store.Dir())
	}
}

// snapshotPeriodically compacts the store's WAL into a snapshot at the
// given period, so recovery replay stays short on long-running daemons.
func snapshotPeriodically(ctx context.Context, logger *obs.Logger, st *histstore.Store, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := st.SnapshotCtx(ctx); err != nil {
				logger.Error("periodic snapshot failed", "err", err)
			} else if logger.Enabled(obs.LevelDebug) {
				logger.Debug("periodic snapshot", "dir", st.Dir())
			}
		}
	}
}

// logMetricsPeriodically emits one logfmt line per interval with every
// counter and gauge, plus the p99 of every latency histogram — enough to
// watch category growth and tail latency from a log stream alone.
func logMetricsPeriodically(ctx context.Context, logger *obs.Logger, reg *obs.Registry, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			logger.Info("metrics", metricsFields(reg.Snapshot())...)
		}
	}
}

// metricsFields flattens a snapshot into sorted logfmt key-value pairs.
func metricsFields(s obs.Snapshot) []interface{} {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	var kv []interface{}
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			kv = append(kv, n, v)
		} else {
			kv = append(kv, n, s.Gauges[n])
		}
	}
	var hists []string
	for n := range s.Histograms {
		hists = append(hists, n)
	}
	sort.Strings(hists)
	for _, n := range hists {
		h := s.Histograms[n]
		if h.Count > 0 {
			kv = append(kv, n+".p99", h.P99)
		}
	}
	return kv
}

// defaultAdmitClass picks the class unlabeled jobs fall into: "standard"
// when the operator's table has it, otherwise the alphabetically first
// class, so any valid -admit-classes value yields a working controller.
func defaultAdmitClass(classes map[string]admission.ClassConfig) string {
	if _, ok := classes["standard"]; ok {
		return "standard"
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names[0]
}

// build constructs the configured daemon without starting to listen.
func build(args []string, stdout io.Writer) (*app, error) {
	fs := flag.NewFlagSet("qwaitd", flag.ContinueOnError)
	addr := fs.String("addr", ":8642", "listen address")
	nodes := fs.Int("nodes", 512, "machine size in nodes (for wait predictions)")
	templates := fs.String("templates", "", "JSON template set (from gasearch -o); default: a generic set")
	warm := fs.String("warm", "", "SWF trace to pre-train the predictor with (skipped when the history store already has data)")
	dataDir := fs.String("data", "", "history store directory: WAL-journaled observations, snapshots on checkpoint/shutdown, crash recovery at boot")
	snapshotInterval := fs.Duration("snapshot-interval", 5*time.Minute, "period between automatic history-store snapshots (0 disables; requires -data)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	metricsInterval := fs.Duration("metrics-interval", 0, "log a metrics snapshot at this period (0 disables)")
	logLevel := fs.String("log-level", "info", "log threshold: debug, info, warn, error")
	traceSample := fs.Float64("trace-sample", 0, "probability of keeping a request trace (0 disables sampling)")
	traceSlow := fs.Duration("trace-slow", 0, "always keep traces slower than this (0 disables the slow rule)")
	traceRing := fs.Int("trace-ring", trace.DefaultCapacity, "how many kept traces to retain for /v1/traces")
	admitClasses := fs.String("admit-classes", "", "enable predictive SLO admission with this class table, e.g. interactive=10m:always,standard=1h:shed,batch=4h:shed:tokens=200 (empty disables /v1/admit)")
	admitHeadroom := fs.Float64("admit-headroom", 1.0, "multiplier applied to every admission wait budget (requires -admit-classes)")
	admitPolicy := fs.String("admit-policy", "Backfill", "scheduling policy the admission forward simulation replays")
	admitOverflow := fs.String("admit-overflow", "", "class whose remaining budget over-budget sheddable jobs may overflow into")
	admitTokenWindow := fs.Duration("admit-token-window", time.Hour, "replenishment window for per-class admission tokens")
	admitState := fs.Bool("admit-state", false, "also learn state-based wait estimates (paper §5) from admitted jobs' realized waits")
	shadowOn := fs.Bool("shadow", false, "shadow-score the full predictor stable on every observation (scoreboard at /v1/stable)")
	reselectOn := fs.Bool("reselect", false, "switch the serving predictor to the shadow-scoreboard winner on confirmed drift (implies -shadow)")
	tailCost := fs.Float64("tail-cost", 0, "asymmetric cost ratio for accuracy scoring: seconds of over-prediction one under-prediction second costs (0 = default 2)")
	reselectWindow := fs.Int("reselect-window", 0, "accuracy window for the serving and shadow streams (0 = default 64)")
	reselectDwell := fs.Int64("reselect-dwell", 0, "minimum completions between predictor switches (0 = 2x window)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var ts []core.Template
	if *templates != "" {
		data, err := os.ReadFile(*templates)
		if err != nil {
			return nil, err
		}
		ts, err = core.UnmarshalTemplates(data)
		if err != nil {
			return nil, err
		}
	} else {
		// A generic template set over the characteristics SWF traces carry.
		ts = core.DefaultTemplates(
			workload.MaskOf(workload.CharUser, workload.CharExec, workload.CharQueue), true)
	}

	var (
		st   *histstore.Store
		opts []core.Option
	)
	if *dataDir != "" {
		var err error
		st, err = histstore.Open(*dataDir)
		if err != nil {
			return nil, fmt.Errorf("opening history store %s: %w", *dataDir, err)
		}
		opts = append(opts, core.WithStore(st),
			core.WithStoreErrorHandler(func(err error) {
				fmt.Fprintln(os.Stderr, "qwaitd: history store insert failed:", err)
			}))
	}
	pred := core.New(ts, opts...)
	if st != nil && st.Categories() > 0 {
		fmt.Fprintf(stdout, "recovered %d categories (%d points) from %s\n",
			st.Categories(), st.Points(), *dataDir)
	}

	if *warm != "" {
		if st != nil && st.Categories() > 0 {
			fmt.Fprintf(stdout, "skipping -warm %s: history store already has data\n", *warm)
		} else {
			f, err := os.Open(*warm)
			if err != nil {
				return nil, err
			}
			w, err := workload.ReadSWF(f, workload.SWFOptions{Name: *warm})
			_ = f.Close() // read-only file; the ReadSWF error is the interesting one
			if err != nil {
				return nil, err
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("warm trace %s: %w", *warm, err)
			}
			for _, j := range w.Jobs {
				pred.Observe(j)
			}
			if err := pred.StoreErr(); err != nil {
				return nil, fmt.Errorf("warming history store: %w", err)
			}
			fmt.Fprintf(stdout, "warmed with %d jobs from %s (%d categories)\n",
				len(w.Jobs), *warm, pred.Categories())
		}
	}

	srv := service.New(pred, *nodes)
	if st != nil {
		srv.SetStore(st)
	}
	if *pprofOn {
		srv.EnablePprof()
	}
	if *traceSample > 0 || *traceSlow > 0 {
		srv.SetTracer(trace.New(
			trace.WithWallClock(),
			trace.WithSampleRate(*traceSample),
			trace.WithSlowThreshold(*traceSlow),
			trace.WithCapacity(*traceRing),
		))
		fmt.Fprintf(stdout, "tracing: sample %g, slow threshold %s, ring %d\n",
			*traceSample, *traceSlow, *traceRing)
	}
	if *admitClasses != "" {
		classes, err := admission.ParseClasses(*admitClasses)
		if err != nil {
			return nil, err
		}
		pol := sched.ByName(*admitPolicy)
		if pol == nil {
			return nil, fmt.Errorf("unknown -admit-policy %q", *admitPolicy)
		}
		cfg := admission.Config{
			Classes:        classes,
			DefaultClass:   defaultAdmitClass(classes),
			Headroom:       *admitHeadroom,
			OverflowClass:  *admitOverflow,
			TokenWindowSec: int64(*admitTokenWindow / time.Second),
			TotalNodes:     *nodes,
			Policy:         pol,
			Predictor:      pred,
			Decision:       predict.MaxRuntime{},
			Metrics:        srv.Metrics(),
		}
		if *admitState {
			cfg.StatePred = waitpred.NewStatePredictor(waitpred.DefaultStateTemplates(true))
		}
		// The headroom, overflow, and token-window knobs came straight off
		// the command line; reject bad values before the class tables are
		// installed.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		ctrl, err := admission.New(cfg)
		if err != nil {
			return nil, err
		}
		srv.SetAdmission(ctrl)
		fmt.Fprintf(stdout, "admission: %s, headroom %g, policy %s\n",
			admission.FormatClasses(classes), *admitHeadroom, pol.Name())
	}
	if *reselectOn || *shadowOn {
		srv.EnableReselect(service.ReselectOptions{
			CostRatio: *tailCost,
			Window:    *reselectWindow,
			MinDwell:  *reselectDwell,
			Switching: *reselectOn,
		})
		mode := "shadow-only"
		if *reselectOn {
			mode = "reselect on confirmed drift"
		}
		fmt.Fprintf(stdout, "stable: shadow scoring %d predictors (%s)\n",
			len(srv.Reselector().Shadow().Members()), mode)
	}
	fmt.Fprintf(stdout, "configured: %d templates, %d-node machine\n", len(ts), *nodes)
	return &app{
		srv: srv, store: st, addr: *addr,
		pprofOn: *pprofOn, metricsInterval: *metricsInterval,
		snapshotInterval: *snapshotInterval,
		logLevel:         obs.ParseLevel(*logLevel),
	}, nil
}
