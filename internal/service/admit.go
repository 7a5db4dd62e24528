package service

import (
	"net/http"

	"repro/internal/admission"
)

// SetAdmission attaches a predictive SLO admission controller: POST
// /v1/admit becomes live, evaluating each submitted job's estimated wait
// against its class budget. The controller should be constructed with
// this server's Metrics() registry (and its predictor) so the
// admission.* counters appear on /v1/metrics.
func (s *Server) SetAdmission(c *admission.Controller) { s.adm = c }

// AdmitRequest asks whether Job should be admitted given the scheduler's
// current queue (arrival order, WITHOUT the job — it has not been
// admitted yet; entries sharing the job's ID are ignored) and running
// set. Now is the submission instant in trace seconds.
type AdmitRequest struct {
	Now     int64     `json:"now"`
	Job     JobJSON   `json:"job"`
	Queue   []JobJSON `json:"queue"`
	Running []JobJSON `json:"running"`
}

// AdmitResponse is the admission verdict: the decision (admit/shed with
// its reason), the wait estimate that produced it, and the budget it was
// held against.
type AdmitResponse struct {
	admission.Decision
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if s.adm == nil {
		errorJSON(w, http.StatusServiceUnavailable, "admission controller not configured")
		return
	}
	var req AdmitRequest
	if !decode(w, r, &req) {
		return
	}
	target := req.Job.toJob()
	if target.Nodes <= 0 {
		errorJSON(w, http.StatusBadRequest, "job needs a positive nodes count")
		return
	}
	all, running := snapshot(req.Queue, req.Running)
	queue := all[:0]
	for _, j := range all {
		if j.ID == target.ID {
			continue // tolerate clients that already queued the job
		}
		queue = append(queue, j)
	}
	d := s.adm.EvaluateCtx(r.Context(), req.Now, target, queue, running)
	writeJSON(w, http.StatusOK, AdmitResponse{Decision: d})
}
