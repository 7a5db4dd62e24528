package workload

import "fmt"

// This file defines the four calibrated study profiles substituting for the
// archival traces of Table 1, with the recorded-characteristic sets of
// Table 2 and the offered loads implied by the utilizations of Table 10:
//
//	Workload  System         Nodes  Requests  Mean run time  Utilization
//	ANL       IBM SP2        80*    7994       97.75 min     ~70%
//	CTC       IBM SP2        512   13217      171.14 min     ~51%
//	SDSC95    Intel Paragon  400   22885      108.21 min     ~41%
//	SDSC96    Intel Paragon  400   22337      166.98 min     ~47%
//
// (*) The paper reduces the ANL machine from 120 to 80 nodes to compensate
// for a recording error that dropped one-third of the requests.

// sdscQueues builds the SDSC-style queue grid: node classes × duration
// classes (short/medium/long), 30 queues, matching the paper's "29 to 35
// queues" on the Paragon.
func sdscQueues() []QueueSpec {
	nodeClasses := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 400}
	durations := []struct {
		suffix string
		limit  int64
	}{
		{"s", 1 * 3600},
		{"m", 4 * 3600},
		{"l", 12 * 3600},
	}
	var qs []QueueSpec
	for _, n := range nodeClasses {
		for _, d := range durations {
			qs = append(qs, QueueSpec{
				Name:     fmt.Sprintf("q%d%s", n, d.suffix),
				MaxNodes: n,
				MaxTime:  d.limit,
			})
		}
	}
	return qs
}

// StudyNames lists the four study workloads in the paper's order.
var StudyNames = []string{"ANL", "CTC", "SDSC95", "SDSC96"}

// StudyConfig returns the calibrated generator configuration for one of the
// four study workloads. scale divides the job count (scale=1 reproduces the
// full Table-1 trace sizes; larger scales give proportionally smaller
// workloads for fast tests). The seed perturbs the generator while keeping
// the calibration.
func StudyConfig(name string, scale int, seed int64) (SynthConfig, error) {
	if scale < 1 {
		scale = 1
	}
	base := SynthConfig{Name: name, Seed: seed}
	switch name {
	case "ANL":
		base.MachineNodes = 80 // reduced from 120 per the paper's footnote
		base.NumJobs = 7994
		base.NumUsers = 90
		base.MeanRunTime = 97.75 * 60
		base.TargetLoad = 0.71
		base.Chars = MaskOf(CharType, CharUser, CharExec, CharArgs)
		base.HasMaxRT = true
		base.InteractiveFrac = 0.25
		base.Types = []string{"batch"}
	case "CTC":
		base.MachineNodes = 512
		base.NumJobs = 13217
		base.NumUsers = 180
		base.MeanRunTime = 171.14 * 60
		base.TargetLoad = 0.52
		base.Chars = MaskOf(CharType, CharClass, CharUser, CharScript, CharNetAdaptor)
		base.HasMaxRT = true
		base.Types = []string{"serial", "parallel", "pvm3"}
		base.Classes = []string{"", "DSI", "PIOFS"}
		base.NetAdaptors = []string{"en0", "css0"}
	case "SDSC95":
		base.MachineNodes = 400
		base.NumJobs = 22885
		base.NumUsers = 250
		base.MeanRunTime = 108.21 * 60
		base.TargetLoad = 0.42
		base.Chars = MaskOf(CharQueue, CharUser)
		base.HasMaxRT = false
		base.Queues = sdscQueues()
		base.MaxRunTimeCap = 12 * 3600 // longest queue limit
	case "SDSC96":
		base.MachineNodes = 400
		base.NumJobs = 22337
		base.NumUsers = 250
		base.MeanRunTime = 166.98 * 60
		base.TargetLoad = 0.47
		base.Chars = MaskOf(CharQueue, CharUser)
		base.HasMaxRT = false
		base.Queues = sdscQueues()
		base.MaxRunTimeCap = 12 * 3600
	default:
		return SynthConfig{}, fmt.Errorf("workload: unknown study workload %q (want one of %v)", name, StudyNames)
	}
	base.NumJobs /= scale
	if base.NumJobs < 50 {
		base.NumJobs = 50
	}
	return base, nil
}

// Study generates one of the four calibrated study workloads.
func Study(name string, scale int, seed int64) (*Workload, error) {
	cfg, err := StudyConfig(name, scale, seed)
	if err != nil {
		return nil, err
	}
	return Generate(cfg)
}

// AllStudies generates the four study workloads at the given scale.
func AllStudies(scale int, seed int64) ([]*Workload, error) {
	out := make([]*Workload, 0, len(StudyNames))
	for i, name := range StudyNames {
		w, err := Study(name, scale, seed+int64(i)*1000)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Compress divides every interarrival gap by factor, raising the offered
// load. Section 4 of the paper compresses the SDSC interarrival times by a
// factor of two to test whether prediction accuracy matters more when
// scheduling becomes "hard". The returned workload is a deep copy.
func Compress(w *Workload, factor float64) *Workload {
	c := w.Clone()
	if factor <= 0 || len(c.Jobs) == 0 {
		return c
	}
	c.Name = fmt.Sprintf("%s/x%.3g", w.Name, factor)
	base := c.Jobs[0].SubmitTime
	for _, j := range c.Jobs {
		j.SubmitTime = base + int64(float64(j.SubmitTime-base)/factor)
	}
	return c
}
