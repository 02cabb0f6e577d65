package service

import (
	"context"
	"net/http"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/faultinject"
	"cote/internal/props"
)

// This file is the model-management API: inspect the current model version
// and its drift, install a model by hand, roll back to a retained version,
// and list the registry's history. Together with POST /v1/calibrate and the
// online recalibrator these are the four ways a model enters the registry.

// ModelInfo is the wire form of one registry version.
type ModelInfo struct {
	Version int             `json:"version"`
	Source  string          `json:"source"`
	Model   *core.TimeModel `json:"model"`
	// Ratio is Cm:Cn:Ch normalized to the smallest non-zero constant —
	// the form the paper reports (5:2:4 serial, 6:1:2 parallel).
	Ratio [3]float64 `json:"ratio"`
	// Samples and FitErr describe the fit that produced the version (zero
	// for seeds, uploads and rollbacks).
	Samples int     `json:"samples,omitempty"`
	FitErr  float64 `json:"fit_err,omitempty"`
	// InstalledUnixMS is when the version became current.
	InstalledUnixMS int64 `json:"installed_unix_ms,omitempty"`
	// Current marks the version the server is pricing with right now.
	Current bool `json:"current,omitempty"`
}

func modelInfo(v *calib.ModelVersion, current bool) ModelInfo {
	r := v.Model.Ratio()
	return ModelInfo{
		Version:         v.Version,
		Source:          v.Source,
		Model:           v.Model,
		Ratio:           [3]float64{r[props.MGJN], r[props.NLJN], r[props.HSJN]},
		Samples:         v.Samples,
		FitErr:          v.FitErr,
		InstalledUnixMS: v.InstalledUnixMS,
		Current:         current,
	}
}

// ModelStatus is the reply of GET /v1/model: the current version plus the
// calibration loop's live state (observation counts, the drift gauge and
// the refit outcomes).
type ModelStatus struct {
	ModelInfo
	Calibration calib.Stats `json:"calibration"`
}

// ModelUpdateRequest is the body of POST /v1/model: exactly one of Model
// (install this model), Rollback (reinstate a retained version), or
// Recalibrate (refit over the observation window now, bypassing the drift
// trigger but not the sample and hysteresis gates).
type ModelUpdateRequest struct {
	Model       *core.TimeModel `json:"model,omitempty"`
	Rollback    int             `json:"rollback,omitempty"`
	Recalibrate bool            `json:"recalibrate,omitempty"`
}

// Model returns the current model version and calibration state, erroring
// 404 while no model is installed.
func (s *Server) ModelStatus() (*ModelStatus, error) {
	v := s.models.Current()
	if v == nil {
		return nil, notFound("no model installed (calibrate first)")
	}
	return &ModelStatus{ModelInfo: modelInfo(v, true), Calibration: s.calib.Stats()}, nil
}

// UpdateModel applies one ModelUpdateRequest and returns the resulting
// current version.
func (s *Server) UpdateModel(_ context.Context, req ModelUpdateRequest) (*ModelStatus, error) {
	set := 0
	if req.Model != nil {
		set++
	}
	if req.Rollback != 0 {
		set++
	}
	if req.Recalibrate {
		set++
	}
	if set != 1 {
		return nil, badRequest("body must set exactly one of model, rollback or recalibrate")
	}
	switch {
	case req.Model != nil:
		if req.Model.Tinst <= 0 {
			return nil, badRequest("model.tinst must be positive")
		}
		if _, err := s.installModel(req.Model, "api", 0, 0); err != nil {
			return nil, err
		}
	case req.Rollback != 0:
		// Rollback is the same registry swap as an install; the chaos plan
		// fails it at the same point.
		if err := faultinject.Check(faultinject.PointModelSwap); err != nil {
			return nil, err
		}
		v, err := s.models.Rollback(req.Rollback)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.publishModel(v)
	default:
		if _, err := s.calib.Recalibrate("recalibrate(api)"); err != nil {
			return nil, badRequest("recalibrate: %v", err)
		}
		s.metrics.ModelInstalls.Add()
	}
	return s.ModelStatus()
}

// ModelHistory lists the retained versions, oldest first.
func (s *Server) ModelHistory() []ModelInfo {
	cur := s.models.Version()
	hist := s.models.History()
	out := make([]ModelInfo, len(hist))
	for i, v := range hist {
		out[i] = modelInfo(v, v.Version == cur)
	}
	return out
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.ModelStatus()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleModelHistory(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"current":  s.models.Version(),
		"versions": s.ModelHistory(),
	})
}
