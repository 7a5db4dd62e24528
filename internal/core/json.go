package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// JSON persistence for template sets, so searched templates (cmd/gasearch)
// can be saved and reloaded by the experiment tools (cmd/tables -templates).
// The representation uses the paper's abbreviations, e.g.:
//
//	[{"chars":["u","e"],"nodeRange":4,"maxHistory":1024,
//	  "relative":true,"useAge":true,"pred":"mean"}]

// templateJSON is the stable wire form of a Template.
type templateJSON struct {
	Chars      []string `json:"chars,omitempty"`
	NodeRange  int      `json:"nodeRange,omitempty"` // 0 = node bucketing unused
	MaxHistory int      `json:"maxHistory,omitempty"`
	Relative   bool     `json:"relative,omitempty"`
	UseAge     bool     `json:"useAge,omitempty"`
	Pred       string   `json:"pred"`
}

// MarshalTemplates encodes a template set as JSON.
func MarshalTemplates(ts []Template) ([]byte, error) {
	out := make([]templateJSON, len(ts))
	for i, t := range ts {
		j := templateJSON{
			NodeRange:  0,
			MaxHistory: t.MaxHistory,
			Relative:   t.Relative,
			UseAge:     t.UseAge,
			Pred:       t.Pred.String(),
		}
		if t.UseNodes {
			j.NodeRange = t.NodeRange
			if j.NodeRange < 1 {
				j.NodeRange = 1
			}
		}
		for _, c := range t.Chars.Chars() {
			j.Chars = append(j.Chars, c.Abbrev())
		}
		out[i] = j
	}
	return json.MarshalIndent(out, "", "  ")
}

// predTypeFromString parses the wire form of a PredType.
func predTypeFromString(s string) (PredType, error) {
	for p := PredType(0); p < NumPredTypes; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown prediction type %q", s)
}

// UnmarshalTemplates decodes a template set from JSON, validating every
// field against the paper's bounds.
func UnmarshalTemplates(data []byte) ([]Template, error) {
	var in []templateJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	out := make([]Template, 0, len(in))
	for i, j := range in {
		var t Template
		var err error
		t.Pred, err = predTypeFromString(j.Pred)
		if err != nil {
			return nil, fmt.Errorf("core: template %d: %v", i, err)
		}
		for _, abbr := range j.Chars {
			c, ok := workload.CharFromAbbrev(abbr)
			if !ok {
				return nil, fmt.Errorf("core: template %d: unknown characteristic %q", i, abbr)
			}
			t.Chars |= workload.MaskOf(c)
		}
		if j.NodeRange < 0 || j.NodeRange > 512 {
			return nil, fmt.Errorf("core: template %d: node range %d out of [0,512]", i, j.NodeRange)
		}
		if j.NodeRange > 0 {
			t.UseNodes = true
			t.NodeRange = j.NodeRange
		}
		if j.MaxHistory < 0 || j.MaxHistory > 65536 {
			return nil, fmt.Errorf("core: template %d: history %d out of [0,65536]", i, j.MaxHistory)
		}
		t.MaxHistory = j.MaxHistory
		t.Relative = j.Relative
		t.UseAge = j.UseAge
		out = append(out, t)
	}
	return out, nil
}
