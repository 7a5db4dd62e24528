package service

import (
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/workload"
)

// TestSwitchedServingRace drives a store-backed server whose serving
// predictor has been switched to Gibbons — a stable member that is not
// safe for concurrent use — with concurrent /v1/observe (which trains the
// stable under the re-selection controller's mutex), /v1/predict,
// /v1/predict/batch and /v1/predictwait. Run under -race it proves every
// switched prediction is serialized with that training.
func TestSwitchedServingRace(t *testing.T) {
	st := histstore.New()
	pred := core.New(core.DefaultTemplates(
		workload.MaskOf(workload.CharUser, workload.CharExec), true),
		core.WithStore(st))
	s := New(pred, 64)
	s.SetStore(st)
	s.EnableReselect(ReselectOptions{Switching: true})
	resel := s.Reselector()
	resel.Switchable().Use(resel.Shadow().Member("gibbons"))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Seed a few categories so the switched predictor has history to read.
	for i := 0; i < 10; i++ {
		post(t, ts.URL+"/v1/observe", ObserveRequest{Job: job(i, "erin", 4, 300+int64(i), 900)}, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := 1000 + g*100 + i
				nodes := 1 + (g+i)%8 // new node buckets keep Gibbons' maps growing
				switch g % 4 {
				case 0, 1:
					post(t, ts.URL+"/v1/observe",
						ObserveRequest{Job: job(id, "erin", nodes, 200+int64(i), 900)}, nil)
				case 2:
					var pr PredictResponse
					post(t, ts.URL+"/v1/predict", PredictRequest{Job: job(id, "erin", nodes, 0, 900)}, &pr)
					if pr.Predictor != "gibbons" {
						t.Errorf("predict served by %q, want gibbons", pr.Predictor)
						return
					}
					post(t, ts.URL+"/v1/predict/batch", PredictBatchRequest{Jobs: []PredictRequest{
						{Job: job(id, "erin", nodes, 0, 900)}, {Job: job(id+1, "erin", 2, 0, 900), Age: 60},
					}}, nil)
				case 3:
					target := JobJSON{ID: id, User: "erin", Executable: "erin/app", Nodes: nodes, MaxRunTime: 900}
					running := JobJSON{ID: id + 50, User: "erin", Executable: "erin/app", Nodes: 60,
						MaxRunTime: 900, StartTime: 0}
					post(t, ts.URL+"/v1/predictwait", PredictWaitRequest{
						Now: 30, Policy: "FCFS", Target: target, Queue: []JobJSON{target},
						Running: []JobJSON{running},
					}, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.observations.Load(); got != 10+2*2*20 {
		t.Fatalf("observations = %d, want %d", got, 10+2*2*20)
	}
}
