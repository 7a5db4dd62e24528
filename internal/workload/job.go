// Package workload defines the job model and workloads used throughout the
// reproduction: the job characteristics of Table 2 of the paper, a reader and
// writer for the Standard Workload Format (SWF) used by the Parallel
// Workloads Archive (so the pipeline can run on the real ANL/CTC/SDSC traces
// when they are available), and synthetic workload generators calibrated to
// Table 1 / Table 2 / Table 10 of the paper for fully offline reproduction.
package workload

import (
	"fmt"
	"strings"
)

// Char identifies one of the job characteristics of Table 2 of the paper
// that a template may include. The abbreviations follow the paper:
// t, q, c, u, s, e, a, na.
type Char uint8

const (
	// CharType is the job type (e.g. batch/interactive at ANL;
	// serial/parallel/pvm3 at CTC).
	CharType Char = iota
	// CharQueue is the submission queue (SDSC records 29–35 queues).
	CharQueue
	// CharClass is the job class (DSI/PIOFS at CTC).
	CharClass
	// CharUser is the submitting user (recorded in all four traces).
	CharUser
	// CharScript is the LoadLeveler script (CTC).
	CharScript
	// CharExec is the executable name (ANL).
	CharExec
	// CharArgs is the executable arguments (ANL).
	CharArgs
	// CharNetAdaptor is the network adaptor (CTC).
	CharNetAdaptor

	// NumChars is the number of distinct template characteristics.
	NumChars = 8
)

// Abbrev returns the paper's abbreviation for the characteristic
// (Table 2's "Abbr" column).
func (c Char) Abbrev() string {
	switch c {
	case CharType:
		return "t"
	case CharQueue:
		return "q"
	case CharClass:
		return "c"
	case CharUser:
		return "u"
	case CharScript:
		return "s"
	case CharExec:
		return "e"
	case CharArgs:
		return "a"
	case CharNetAdaptor:
		return "na"
	}
	return fmt.Sprintf("char(%d)", uint8(c))
}

// String implements fmt.Stringer.
func (c Char) String() string { return c.Abbrev() }

// CharFromAbbrev returns the characteristic for a Table-2 abbreviation.
func CharFromAbbrev(s string) (Char, bool) {
	for c := Char(0); c < NumChars; c++ {
		if c.Abbrev() == s {
			return c, true
		}
	}
	return 0, false
}

// CharMask is a bit set of characteristics. Each workload advertises which
// characteristics its trace records; template searches are restricted to
// that set (paper §2.1: "we are restricted to those values recorded in
// workload traces").
type CharMask uint16

// MaskOf builds a CharMask from the listed characteristics.
func MaskOf(chars ...Char) CharMask {
	var m CharMask
	for _, c := range chars {
		m |= 1 << c
	}
	return m
}

// Has reports whether the mask includes c.
func (m CharMask) Has(c Char) bool { return m&(1<<c) != 0 }

// Chars returns the characteristics present in the mask, in Table-2 order.
func (m CharMask) Chars() []Char {
	var out []Char
	for c := Char(0); c < NumChars; c++ {
		if m.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// String renders the mask like "(t,u,e)".
func (m CharMask) String() string {
	parts := make([]string, 0, NumChars)
	for _, c := range m.Chars() {
		parts = append(parts, c.Abbrev())
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Job is one request recorded in (or generated for) a workload trace.
// Times are in seconds relative to the start of the trace. RunTime is the
// actual execution time; MaxRunTime is the user-supplied limit (0 when the
// trace does not record one). StartTime and EndTime are outputs of a
// scheduling simulation; they are zero until the job has been scheduled.
type Job struct {
	ID int

	// Characteristics (Table 2). Empty strings mean "not recorded".
	Type       string
	Queue      string
	Class      string
	User       string
	Script     string
	Executable string
	Arguments  string
	NetAdaptor string

	Nodes      int   // number of nodes requested
	SubmitTime int64 // seconds since trace start
	RunTime    int64 // actual run time, seconds
	MaxRunTime int64 // user-supplied maximum run time, seconds (0 = none)

	// CancelAfter, when positive, withdraws the job from the queue if it
	// has not started within that many seconds of submission (user
	// cancellations, a routine event in production traces). Zero means the
	// user waits forever.
	CancelAfter int64

	// Simulation outputs.
	StartTime int64
	EndTime   int64
	// Cancelled reports that the job was withdrawn before starting; its
	// StartTime/EndTime remain zero and it is excluded from metrics.
	Cancelled bool
	// Shed reports that an admission controller rejected the job at
	// submission: it never joined the queue, its StartTime/EndTime remain
	// zero, and it is excluded from the wait and utilization metrics.
	Shed bool
}

// Characteristic returns the job's value for the given template
// characteristic.
func (j *Job) Characteristic(c Char) string {
	switch c {
	case CharType:
		return j.Type
	case CharQueue:
		return j.Queue
	case CharClass:
		return j.Class
	case CharUser:
		return j.User
	case CharScript:
		return j.Script
	case CharExec:
		return j.Executable
	case CharArgs:
		return j.Arguments
	case CharNetAdaptor:
		return j.NetAdaptor
	}
	return ""
}

// WaitTime returns StartTime - SubmitTime. It is meaningful only after a
// simulation has assigned a start time.
func (j *Job) WaitTime() int64 { return j.StartTime - j.SubmitTime }

// Work returns the job's resource demand: nodes × actual run time,
// in node-seconds. LWF orders jobs by the predicted version of this value.
func (j *Job) Work() int64 { return int64(j.Nodes) * j.RunTime }

// Clone returns a copy of the job with simulation outputs reset.
func (j *Job) Clone() *Job {
	c := *j
	c.StartTime = 0
	c.EndTime = 0
	c.Cancelled = false
	c.Shed = false
	return &c
}

// Workload is a set of jobs recorded on (or generated for) one machine.
type Workload struct {
	Name         string
	MachineNodes int
	Jobs         []*Job   // sorted by SubmitTime
	Chars        CharMask // characteristics the trace records
	HasMaxRT     bool     // whether user-supplied maximum run times exist
}

// Clone deep-copies the workload with simulation outputs reset, so multiple
// simulations can run on the same trace without interference.
func (w *Workload) Clone() *Workload {
	jobs := make([]*Job, len(w.Jobs))
	for i, j := range w.Jobs {
		jobs[i] = j.Clone()
	}
	c := *w
	c.Jobs = jobs
	return &c
}

// Validate checks internal consistency: jobs sorted by submit time,
// positive run times, node requests within the machine size.
func (w *Workload) Validate() error {
	if w.MachineNodes <= 0 {
		return fmt.Errorf("workload %s: nonpositive machine size %d", w.Name, w.MachineNodes)
	}
	var prev int64 = -1 << 62
	for i, j := range w.Jobs {
		if j.SubmitTime < prev {
			return fmt.Errorf("workload %s: job %d submitted before its predecessor", w.Name, i)
		}
		prev = j.SubmitTime
		if j.RunTime <= 0 {
			return fmt.Errorf("workload %s: job %d has run time %d", w.Name, i, j.RunTime)
		}
		if j.Nodes <= 0 || j.Nodes > w.MachineNodes {
			return fmt.Errorf("workload %s: job %d requests %d of %d nodes",
				w.Name, i, j.Nodes, w.MachineNodes)
		}
		if w.HasMaxRT && j.MaxRunTime <= 0 {
			return fmt.Errorf("workload %s: job %d missing maximum run time", w.Name, i)
		}
	}
	return nil
}

// DeriveQueueMaxRunTimes returns, for each queue, the longest run time of
// any job submitted to it. The paper derives maximum run times for the SDSC
// workloads this way ("we determine the longest running job in each queue
// and use that as the maximum run time for all jobs in that queue", §3).
func (w *Workload) DeriveQueueMaxRunTimes() map[string]int64 {
	m := make(map[string]int64)
	for _, j := range w.Jobs {
		if j.RunTime > m[j.Queue] {
			m[j.Queue] = j.RunTime
		}
	}
	return m
}

// ApplyQueueMaxRunTimes sets each job's MaxRunTime from the per-queue map
// (used with DeriveQueueMaxRunTimes for the SDSC-style workloads).
func (w *Workload) ApplyQueueMaxRunTimes(limits map[string]int64) {
	for _, j := range w.Jobs {
		if limit, ok := limits[j.Queue]; ok && limit > 0 {
			j.MaxRunTime = limit
		}
	}
	w.HasMaxRT = true
}

// OfferedLoad returns Σ(nodes×runtime) / (machineNodes × span) where span is
// the interval from the first submission to the last possible completion if
// every job ran immediately. It approximates the utilization the trace would
// impose on an ideal scheduler.
func (w *Workload) OfferedLoad() float64 {
	if len(w.Jobs) == 0 {
		return 0
	}
	var work int64
	var first, last int64 = w.Jobs[0].SubmitTime, 0
	for _, j := range w.Jobs {
		work += j.Work()
		if end := j.SubmitTime + j.RunTime; end > last {
			last = end
		}
	}
	span := last - first
	if span <= 0 {
		return 0
	}
	return float64(work) / (float64(w.MachineNodes) * float64(span))
}
