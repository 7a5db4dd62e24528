package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a reader and writer for the Standard Workload Format
// (SWF) of the Parallel Workloads Archive. The four traces the paper studies
// (ANL SP2, CTC SP2, SDSC Paragon 95/96) are archived in this format, so a
// downstream user can run the identical pipeline on the real data:
//
//	w, err := workload.ReadSWF(f, workload.SWFOptions{Name: "CTC", MachineNodes: 512})
//
// SWF is a line-oriented format: comment lines start with ';', data lines
// have 18 whitespace-separated integer fields:
//
//	 1 job number          10 requested memory
//	 2 submit time         11 status
//	 3 wait time           12 user id
//	 4 run time            13 group id
//	 5 allocated procs     14 executable (application) number
//	 6 avg cpu time        15 queue number
//	 7 used memory         16 partition number
//	 8 requested procs     17 preceding job number
//	 9 requested time      18 think time
//
// Missing values are recorded as -1.

// SWFOptions configures ReadSWF.
type SWFOptions struct {
	Name         string
	MachineNodes int  // if 0, inferred from the MaxProcs header or max procs seen
	KeepFailed   bool // keep jobs with status 0/5 (failed/cancelled); default drop
}

// swfHeaderMaxProcs extracts MaxProcs from an SWF header comment line.
func swfHeaderMaxProcs(line string) (int, bool) {
	s := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	if !strings.HasPrefix(s, "MaxProcs:") {
		return 0, false
	}
	v := strings.TrimSpace(strings.TrimPrefix(s, "MaxProcs:"))
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// ReadSWF parses a Standard Workload Format trace into a Workload.
// Jobs with nonpositive run times or node requests are dropped (they cannot
// be scheduled). User, executable, and queue numbers become the string
// characteristics "u<N>", "e<N>", and "q<N>". Requested time becomes the
// user-supplied maximum run time when present.
func ReadSWF(r io.Reader, opts SWFOptions) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	w := &Workload{Name: opts.Name, MachineNodes: opts.MachineNodes}
	maxProcsSeen := 0
	allMaxRT := true
	lineNo := 0
	var baseSubmit int64 = -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			if n, ok := swfHeaderMaxProcs(line); ok && w.MachineNodes == 0 {
				w.MachineNodes = n
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 18 {
			return nil, fmt.Errorf("swf: line %d: %d fields, want 18", lineNo, len(f))
		}
		var v [18]int64
		for i := 0; i < 18; i++ {
			n, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("swf: line %d field %d: %v", lineNo, i+1, err)
			}
			v[i] = n
		}
		status := v[10]
		if !opts.KeepFailed && (status == 0 || status == 5) {
			continue
		}
		nodes := v[7] // requested procs
		if nodes <= 0 {
			nodes = v[4] // fall back to allocated procs
		}
		runTime := v[3]
		if runTime <= 0 || nodes <= 0 {
			continue
		}
		if baseSubmit < 0 {
			baseSubmit = v[1]
		}
		j := &Job{
			ID:         int(v[0]),
			SubmitTime: v[1] - baseSubmit,
			RunTime:    runTime,
			Nodes:      int(nodes),
		}
		if v[11] >= 0 {
			j.User = "u" + strconv.FormatInt(v[11], 10)
		}
		if v[13] >= 0 {
			j.Executable = "e" + strconv.FormatInt(v[13], 10)
		}
		if v[14] >= 0 {
			j.Queue = "q" + strconv.FormatInt(v[14], 10)
		}
		if v[8] > 0 {
			j.MaxRunTime = v[8]
		} else {
			allMaxRT = false
		}
		if int(nodes) > maxProcsSeen {
			maxProcsSeen = int(nodes)
		}
		w.Jobs = append(w.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: %v", err)
	}
	if w.MachineNodes == 0 {
		w.MachineNodes = maxProcsSeen
	}
	// HasMaxRT asserts that *every* job carries a user-supplied limit;
	// partially covered traces keep per-job limits but don't claim coverage.
	w.HasMaxRT = allMaxRT && len(w.Jobs) > 0
	mask := MaskOf(CharUser)
	if anyField(w.Jobs, func(j *Job) string { return j.Queue }) {
		mask |= MaskOf(CharQueue)
	}
	if anyField(w.Jobs, func(j *Job) string { return j.Executable }) {
		mask |= MaskOf(CharExec)
	}
	w.Chars = mask
	sortJobsBySubmit(w.Jobs)
	return w, w.Validate()
}

func anyField(jobs []*Job, get func(*Job) string) bool {
	for _, j := range jobs {
		if get(j) != "" {
			return true
		}
	}
	return false
}

// WriteSWF writes the workload in Standard Workload Format. String
// characteristics are mapped back to dense integer identifiers; fields the
// job model does not carry are written as -1.
func WriteSWF(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; SWF export of workload %s\n", wl.Name)
	fmt.Fprintf(bw, "; MaxProcs: %d\n", wl.MachineNodes)
	users := newInterner()
	execs := newInterner()
	queues := newInterner()
	for i, j := range wl.Jobs {
		maxRT := int64(-1)
		if j.MaxRunTime > 0 {
			maxRT = j.MaxRunTime
		}
		wait := int64(-1)
		if j.StartTime > 0 || j.EndTime > 0 {
			wait = j.WaitTime()
		}
		_, err := fmt.Fprintf(bw, "%d %d %d %d %d -1 -1 %d %d -1 1 %d -1 %d %d -1 -1 -1\n",
			i+1, j.SubmitTime, wait, j.RunTime, j.Nodes, j.Nodes, maxRT,
			users.id(j.User), execs.id(j.Executable), queues.id(j.Queue))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// interner maps strings to dense positive integers, with "" → -1.
type interner struct {
	ids  map[string]int
	next int
}

func newInterner() *interner { return &interner{ids: make(map[string]int), next: 1} }

func (in *interner) id(s string) int {
	if s == "" {
		return -1
	}
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := in.next
	in.next++
	in.ids[s] = id
	return id
}

func sortJobsBySubmit(jobs []*Job) {
	// Insertion-style stable sort on SubmitTime; traces are nearly sorted so
	// this is effectively linear, and it keeps arrival order deterministic
	// for equal submit times.
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && jobs[k].SubmitTime > j.SubmitTime {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}
