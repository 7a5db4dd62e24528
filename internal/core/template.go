// Package core implements the paper's primary contribution: run-time
// prediction from historical information of previous similar runs, where
// similarity is defined by templates of job characteristics (§2.1).
//
// A template selects a subset of the characteristics recorded in a trace
// (type, queue, class, user, script, executable, arguments, network adaptor)
// plus, optionally, a node-range bucketing. Applying a template to a job
// yields a category; all completed jobs in the same category are "similar"
// and contribute to the prediction. Each template also fixes how the
// prediction is formed from the category (mean, or a linear / inverse /
// logarithmic regression against the node count), whether absolute run
// times or run times relative to the user-supplied maximum are stored,
// whether the estimate conditions on how long the job has already been
// running, and how much history a category may retain.
//
// A Predictor evaluates every template, keeps the estimates whose
// categories can provide a valid prediction, and returns the one with the
// smallest confidence interval.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// PredType selects how a prediction is formed from a category's data points
// (§2.1: "a mean, a linear regression, an inverse regression, and a
// logarithmic regression"). The paper found the mean to be the single best
// predictor and uses it exclusively in the 1999 study; the regressions are
// implemented for completeness and ablation.
type PredType uint8

const (
	// PredMean predicts the category mean.
	PredMean PredType = iota
	// PredLinear predicts from a linear regression of run time on nodes.
	PredLinear
	// PredInverse predicts from a regression of run time on 1/nodes.
	PredInverse
	// PredLog predicts from a regression of run time on ln(nodes).
	PredLog

	// NumPredTypes counts the prediction types (for the GA encoding).
	NumPredTypes = 4
)

// String implements fmt.Stringer.
func (p PredType) String() string {
	switch p {
	case PredMean:
		return "mean"
	case PredLinear:
		return "lr"
	case PredInverse:
		return "invr"
	case PredLog:
		return "logr"
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// Template defines one similarity criterion (§2.1).
type Template struct {
	// Chars is the set of enabled categorical characteristics.
	Chars workload.CharMask
	// UseNodes enables node-range bucketing with the given range size.
	UseNodes bool
	// NodeRange is the node range size: jobs with ⌈nodes/NodeRange⌉ equal
	// fall in the same bucket. The paper encodes powers of two from 1 to
	// 512. Ignored unless UseNodes.
	NodeRange int
	// MaxHistory bounds the number of points a category retains (oldest
	// evicted first). Zero means unlimited. The paper encodes powers of two
	// from 2 to 65536.
	MaxHistory int
	// Relative stores run times as fractions of the user-supplied maximum
	// run time instead of absolute values ("relative run times", §2.1).
	Relative bool
	// UseAge conditions the estimate on the job's current running time:
	// only data points whose run time exceeds the job's age contribute
	// (the paper's "running time" template attribute).
	UseAge bool
	// Pred selects the prediction type.
	Pred PredType
}

// minPoints returns the fewest data points from which this template can
// form a valid prediction with a confidence interval.
func (t Template) minPoints() int {
	if t.Pred == PredMean {
		return 2 // mean + t-interval needs n ≥ 2
	}
	return 3 // regressions need n ≥ 3 and distinct regressors
}

// nodeBucket returns the node-range bucket index for a node count.
func (t Template) nodeBucket(nodes int) int {
	r := t.NodeRange
	if r < 1 {
		r = 1
	}
	return (nodes - 1) / r
}

// Applicable reports whether the template can be evaluated at all on a
// workload recording the given characteristics: every categorical
// characteristic it uses must be recorded, and relative run times require
// user-supplied maximum run times.
func (t Template) Applicable(chars workload.CharMask, hasMaxRT bool) bool {
	for _, c := range t.Chars.Chars() {
		if !chars.Has(c) {
			return false
		}
	}
	if t.Relative && !hasMaxRT {
		return false
	}
	return true
}

// keyBufSize is the stack buffer the predictor renders category keys
// into. Keys are the template index plus the job's characteristic values,
// so real traces stay far below it; a longer key grows onto the heap.
const keyBufSize = 256

// AppendKey appends the category key for a job under this template to b
// and returns the extended slice. Keys embed the template's identity (its
// index in the template set), so identical value combinations under
// different templates stay distinct. Rendering into a caller-supplied
// buffer lets the predict path probe the category tables with a stack
// array and never build a key string.
func (t Template) AppendKey(b []byte, idx int, j *workload.Job) []byte {
	b = strconv.AppendInt(b, int64(idx), 10)
	for c := workload.Char(0); c < workload.NumChars; c++ {
		if t.Chars.Has(c) {
			b = appendField(b, j.Characteristic(c))
		}
	}
	if t.UseNodes {
		b = appendField(b, "n")
		b = strconv.AppendInt(b, int64(t.nodeBucket(j.Nodes)), 10)
	}
	return b
}

// appendField appends a '|' separator and s to b.
func appendField(b []byte, s string) []byte {
	return append(append(b, '|'), s...) //lint:allow hotpath grows onto the heap only for a key longer than the caller's keyBufSize stack buffer
}

// String renders the template like the paper, e.g. "(u,e,n=4,h=1024,rel,age,mean)".
func (t Template) String() string {
	var parts []string
	for _, c := range t.Chars.Chars() {
		parts = append(parts, c.Abbrev())
	}
	if t.UseNodes {
		parts = append(parts, fmt.Sprintf("n=%d", t.NodeRange))
	}
	if t.MaxHistory > 0 {
		parts = append(parts, fmt.Sprintf("h=%d", t.MaxHistory))
	}
	if t.Relative {
		parts = append(parts, "rel")
	}
	if t.UseAge {
		parts = append(parts, "age")
	}
	parts = append(parts, t.Pred.String())
	return "(" + strings.Join(parts, ",") + ")"
}

// DefaultTemplates returns a sensible hand-built template set for a
// workload recording the given characteristics — the starting point when
// no genetic-algorithm search has been run. It nests from most to least
// specific, mirroring the structure Gibbons fixed by hand but with the
// smallest-confidence-interval selection of the paper.
func DefaultTemplates(chars workload.CharMask, hasMaxRT bool) []Template {
	var identity []workload.Char // most specific identity chars available
	for _, c := range []workload.Char{workload.CharExec, workload.CharScript, workload.CharQueue} {
		if chars.Has(c) {
			identity = append(identity, c)
		}
	}
	mk := func(cs ...workload.Char) workload.CharMask { return workload.MaskOf(cs...) }
	var ts []Template
	add := func(t Template) {
		if t.Applicable(chars, hasMaxRT) {
			ts = append(ts, t)
		}
	}
	if chars.Has(workload.CharUser) {
		for _, id := range identity {
			add(Template{Chars: mk(workload.CharUser, id), UseNodes: true, NodeRange: 4,
				MaxHistory: 4096, UseAge: true, Pred: PredMean})
			add(Template{Chars: mk(workload.CharUser, id), MaxHistory: 4096, Pred: PredMean})
			if hasMaxRT {
				add(Template{Chars: mk(workload.CharUser, id), MaxHistory: 4096,
					Relative: true, Pred: PredMean})
			}
		}
		add(Template{Chars: mk(workload.CharUser), UseNodes: true, NodeRange: 8,
			MaxHistory: 4096, Pred: PredMean})
		add(Template{Chars: mk(workload.CharUser), MaxHistory: 4096, Pred: PredMean})
	}
	for _, id := range identity {
		add(Template{Chars: mk(id), UseNodes: true, NodeRange: 8, MaxHistory: 8192,
			UseAge: true, Pred: PredMean})
		add(Template{Chars: mk(id), MaxHistory: 8192, Pred: PredMean})
	}
	// Fallback: everything in one pile, bucketed by nodes.
	add(Template{UseNodes: true, NodeRange: 16, MaxHistory: 16384, Pred: PredMean})
	add(Template{MaxHistory: 16384, Pred: PredMean})
	return ts
}
