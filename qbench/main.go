// Command qbench is the repository's end-to-end benchmark. It generates
// its inputs from the calibrated study workloads, drives an in-process
// qwaitd service over a loopback listener with an open-loop generator (or,
// for table-replay, replays two paper table cells through internal/exp),
// checks every output, and prints each metric by name with its unit. With
// --trace 1 it replays the same inputs through direct, span-timed calls
// into each layer and prints per-layer metrics instead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash qbench/run.sh --workload predict-read --seed 1 --seconds 20 --trace 0
//
// See qbench/README.md for the workloads, the metrics and the layers each
// one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wallLimit bounds a whole run; past it the benchmark removes its
// temporary files and exits non-zero.
const wallLimit = 170 * time.Second

// tableSetupsPerRep is how many more times table-replay sets up its
// input, one generated trace, after each repetition of its cells; setup_s
// is the median. An HTTP workload sets up once more per round (httpwl.go).
const tableSetupsPerRep = 4

// workers is the number of client connections and closed-loop clients:
// one per CPU the process may use.
var workers = runtime.GOMAXPROCS(0)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmp      string // private temporary directory, removed on exit
	spansOut string // where a traced run writes its spans
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 replays the inputs through span-timed layer calls and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "qbench: check arguments: want --workload one of %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	tmp, err := os.MkdirTemp("", "qbench-")
	if err != nil {
		fmt.Fprintln(stderr, "qbench: check temp dir:", err)
		return 1
	}
	defer os.RemoveAll(tmp) //lint:allow errdrop best-effort removal of this run's scratch files
	watchdog := time.AfterFunc(wallLimit, func() {
		fmt.Fprintf(stderr, "qbench: check wall time: run exceeded %s\n", wallLimit)
		_ = os.RemoveAll(tmp) // best effort: the process exits next
		os.Exit(1)
	})
	defer watchdog.Stop()

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, tmp: tmp}
	if cfg.trace {
		cfg.spansOut = filepath.Join(os.TempDir(), fmt.Sprintf("qbench-spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	rep := newReport()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "qbench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "qbench: check failed: %s\n", p)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "qbench: check output:", err)
		return 1
	}
	return 0
}

// runner executes one workload and fills the report.
type runner func(cfg config, rep *report) error

var workloads = map[string]runner{
	"predict-read":  httpRunner(predictRead),
	"observe-write": httpRunner(observeWrite),
	"wait-admit":    httpRunner(waitAdmit),
	"table-replay":  runTable,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, operation counts and failed checks.
type report struct {
	names     []string
	metrics   map[string]metric
	notes     map[string]string
	asides    []string // printed with the metrics, not part of the result
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note (e.g. the sample count) is printed beside it.
func (r *report) set(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not a number (%v)", name, v)
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// aside prints a figure beside the metrics without making it one.
func (r *report) aside(name, unit string, v float64, note string) {
	r.asides = append(r.asides, fmt.Sprintf("%-40s %16.6f %-6s %s", name, v, unit, note))
}

// count adds operations to the attempted and failed totals; the first
// failure's cause is kept as a failed check.
func (r *report) count(attempted, failed int, cause error) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && cause != nil {
		r.fail("%d of %d operations failed; first: %v", failed, attempted, cause)
	}
}

// fail records a failed check; the run then reports correct=false.
func (r *report) fail(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) error {
	for _, n := range r.names {
		m := r.metrics[n]
		if _, err := fmt.Fprintf(w, "%-40s %16.6f %-6s %s\n", n, m.Value, m.Unit, r.notes[n]); err != nil {
			return err
		}
	}
	r.aside("error_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)),
		fmt.Sprintf("attempted=%d failed=%d", r.attempted, r.failed))
	for _, line := range r.asides {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeapMiB is the live heap after a forced collection, in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes collects a run's set-up repetitions, each timed in process
// CPU time and in wall time.
type setupTimes struct{ cpu, wall []float64 }

// start begins timing one set-up, after collecting the garbage earlier
// ones left, so each begins from the same heap; the returned function ends
// it.
func (s *setupTimes) start() func() {
	runtime.GC()
	c, t := cpuTime(), time.Now()
	return func() {
		s.cpu = append(s.cpu, (cpuTime() - c).Seconds())
		s.wall = append(s.wall, time.Since(t).Seconds())
	}
}

// report sets setup_s, the median set-up in reference CPU-seconds, and
// prints the medians in CPU and wall time beside it.
func (s setupTimes) report(rep *report, sp *speed) {
	rep.set("setup_s", "s", median(s.cpu)*sp.factor(), fmt.Sprintf("reference CPU time, median of %d set-ups", len(s.cpu)))
	rep.aside("setup_cpu_s", "s", median(s.cpu), fmt.Sprintf("process CPU time, median of %d set-ups", len(s.cpu)))
	rep.aside("setup_wall_s", "s", median(s.wall), fmt.Sprintf("median of %d set-ups", len(s.wall)))
	rep.aside("ref.factor", "ratio", sp.factor(), sp.note())
}

// cpuMark is a point in time as the process and the machine saw it: the
// process's CPU time, the wall clock, and the machine's steal and total
// CPU jiffies.
type cpuMark struct {
	cpu          time.Duration
	wall         time.Time
	steal, total float64
}

func markCPU() cpuMark {
	steal, total := readSteal()
	return cpuMark{cpu: cpuTime(), wall: time.Now(), steal: steal, total: total}
}

// utilSince is the process's CPU utilization from m to now: its CPU time
// over the CPU time workers threads could have had, which is wall time ×
// workers less the share the hypervisor stole from the machine's CPUs
// (CPU time a shared host gives other tenants is not the program's idle
// time). It also returns that stolen share.
func (m cpuMark) utilSince(now cpuMark, workers int) (util, stolen float64) {
	if dt := now.total - m.total; dt > 0 {
		stolen = (now.steal - m.steal) / dt
	}
	avail := now.wall.Sub(m.wall).Seconds() * float64(workers) * (1 - stolen)
	return ratio((now.cpu - m.cpu).Seconds(), avail), stolen
}

// readSteal reads the machine's CPU jiffies from /proc/stat; both are zero
// where the file cannot be read, and utilization is then CPU time over
// wall time × workers.
func readSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseSteal(string(b))
}

// parseSteal takes the aggregate "cpu" line of /proc/stat and returns its
// steal column and the sum of the columns user through steal (guest time
// is already counted in user and nice).
func parseSteal(stat string) (steal, total float64) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, col := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(col, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// setTail prints the latency tail of an ordered sample beside the
// metrics: p90 and p99, each the median over windows of 1000 requests of
// the window's quantile. Neither is a bounded metric: on a shared 2-vCPU
// host their spread over ten runs of identical code (interquartile range
// over median) reached 0.74 and 0.88, following the CPU time the host
// stole, while p50 stayed within 0.14 and slo_frac within 0.01.
func setTail(rep *report, latMs []float64) {
	p90, windows := windowQuantile(latMs, 0.90)
	p99, _ := windowQuantile(latMs, 0.99)
	note := fmt.Sprintf("median of %d windows of %d, n=%d", windows, window, len(latMs))
	if len(latMs) < window {
		rep.fail("p99 samples: %d latencies, fewer than %d", len(latMs), window)
	}
	rep.aside("p90_ms", "ms", p90, note)
	rep.aside("p99_ms", "ms", p99, note)
}
