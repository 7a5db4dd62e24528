package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/histstore"
)

// Checkpoint/restore for the predictor's category database, so a
// long-running deployment (cmd/qwaitd) can restart without losing its
// history. The format is line-oriented JSON: a header line binding the
// checkpoint to a template set, then one line per category. Restoring into
// a predictor with a different template set is refused — category keys
// embed template indices, so histories are only meaningful to the set that
// created them.
//
// Store-backed deployments normally rely on the histstore's own WAL +
// snapshot durability instead; this format remains as the legacy
// interchange path (and the one-time migration source for old -state
// files). Loading into a store-backed predictor replaces the store's
// contents without journaling the import — callers should snapshot the
// store right after a successful load.

// stateHeader is the first line of a checkpoint.
type stateHeader struct {
	Version    int    `json:"version"`
	Templates  string `json:"templates"` // canonical rendering of the template set
	Categories int    `json:"categories"`
}

// statePoint mirrors histstore.Point with JSON tags. Ratio uses -1 for
// "absent" (NaN is not valid JSON).
type statePoint struct {
	RunTime float64 `json:"rt"`
	Ratio   float64 `json:"ratio"`
	Nodes   float64 `json:"nodes"`
}

// stateCategory is one category line.
type stateCategory struct {
	Key        string       `json:"key"`
	MaxHistory int          `json:"maxHistory,omitempty"`
	Head       int          `json:"head,omitempty"`
	Points     []statePoint `json:"points"`
}

// templateFingerprint canonically renders the template set for checkpoint
// compatibility checks.
func (p *Predictor) templateFingerprint() string {
	s := ""
	for i, t := range p.templates {
		s += fmt.Sprintf("%d:%s;", i, t)
	}
	return s
}

// stateCategoryOf extracts one category's checkpoint line. Category
// accessors copy, so the result stays valid after any lock protecting c is
// released.
func stateCategoryOf(key string, c *histstore.Category) stateCategory {
	pts := c.Points()
	sc := stateCategory{
		Key:        key,
		MaxHistory: c.MaxHistory(),
		Head:       c.Head(),
		Points:     make([]statePoint, 0, len(pts)),
	}
	for _, pt := range pts {
		sp := statePoint{RunTime: pt.RunTime, Ratio: pt.Ratio, Nodes: pt.Nodes}
		if math.IsNaN(sp.Ratio) {
			sp.Ratio = -1
		}
		sc.Points = append(sc.Points, sp)
	}
	return sc
}

// SaveState writes the predictor's full category database.
func (p *Predictor) SaveState(w io.Writer) error {
	var cats []stateCategory
	if p.store != nil {
		// Extract under the store's shard read locks; a concurrent writer
		// may land between shards, but each category line is consistent.
		p.store.ForEach(func(key string, c *histstore.Category) {
			cats = append(cats, stateCategoryOf(key, c))
		})
	} else {
		cats = make([]stateCategory, 0, len(p.cats))
		for key, r := range p.cats {
			cats = append(cats, stateCategoryOf(key, r.c))
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(stateHeader{
		Version:    1,
		Templates:  p.templateFingerprint(),
		Categories: len(cats),
	}); err != nil {
		return err
	}
	for _, sc := range cats {
		if err := enc.Encode(sc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadState replaces the predictor's category database with a checkpoint
// previously written by SaveState. It fails (leaving the predictor
// unchanged) if the checkpoint was produced under a different template set
// or contains invalid data; the whole file is parsed and validated before
// anything is installed.
func (p *Predictor) LoadState(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr stateHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("core: checkpoint header: %v", err)
	}
	if hdr.Version != 1 {
		return fmt.Errorf("core: unsupported checkpoint version %d", hdr.Version)
	}
	if hdr.Templates != p.templateFingerprint() {
		return fmt.Errorf("core: checkpoint was created under a different template set")
	}
	cats := make(map[string]catRef, hdr.Categories)
	for i := 0; i < hdr.Categories; i++ {
		var sc stateCategory
		if err := dec.Decode(&sc); err != nil {
			return fmt.Errorf("core: checkpoint category %d: %v", i, err)
		}
		pts := make([]histstore.Point, 0, len(sc.Points))
		for _, sp := range sc.Points {
			pt := histstore.Point{RunTime: sp.RunTime, Ratio: sp.Ratio, Nodes: sp.Nodes}
			if sp.Ratio < 0 {
				pt.Ratio = math.NaN()
			}
			pts = append(pts, pt)
		}
		c, err := histstore.RestorePoints(sc.MaxHistory, sc.Head, pts)
		if err != nil {
			return fmt.Errorf("core: checkpoint category %q: %v", sc.Key, err)
		}
		cats[sc.Key] = catRef{c: c, key: sc.Key}
	}
	if p.store != nil {
		p.store.Reset()
		for key, r := range cats {
			p.store.Put(key, r.c)
		}
		return nil
	}
	p.cats = cats
	return nil
}
