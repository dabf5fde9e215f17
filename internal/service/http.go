package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"taopt/internal/scenario"
)

// maxBody bounds a submitted scenario document (1 MiB is orders of magnitude
// above any real document).
const maxBody = 1 << 20

// apiIssue is one located validation finding in an error envelope.
type apiIssue struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

// apiError is the stable JSON error envelope of every non-2xx response:
//
//	{"error": {"code": "...", "message": "...", "issues": [...]}}
type apiError struct {
	Code    string     `json:"code"`
	Message string     `json:"message"`
	Issues  []apiIssue `json:"issues,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// submitResponse is the body of POST /v1/runs.
type submitResponse struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	ConfigHash string `json:"configHash"`
	State      string `json:"state"`
	CacheHit   bool   `json:"cacheHit"`
}

// runsResponse is the body of GET /v1/runs.
type runsResponse struct {
	Runs []RunRecord `json:"runs"`
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	Stats Stats `json:"stats"`
	Cells int   `json:"cells"`
}

// NewHandler returns the service's HTTP API:
//
//	GET  /healthz                 liveness
//	POST /v1/runs                 submit a run scenario document (?wait=1 blocks)
//	GET  /v1/runs                 list run records
//	GET  /v1/runs/{id}            one run record (?wait=1 blocks until settled)
//	GET  /v1/runs/{id}/export     the run's v5 export, byte-identical to the JSON view of taopt -bintrace
//	GET  /v1/runs/{id}/telemetry  the rendered telemetry digest
//	GET  /v1/runs/{id}/trace      the binary trace stream
//	GET  /v1/stats                cache and flight counters
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds 1 MiB", nil)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_scenario", err.Error(), nil)
			return
		}
		rec, err := s.Submit(data)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		if r.URL.Query().Get("wait") == "1" {
			if rec, err = s.WaitRun(rec.ID); err != nil {
				writeLookupError(w, err)
				return
			}
		}
		w.Header().Set("X-Taopt-Run-Id", rec.ID)
		w.Header().Set("X-Taopt-Cache", cacheHeader(rec))
		status := http.StatusOK
		if rec.State == StateQueued {
			status = http.StatusAccepted
		}
		writeJSON(w, status, submitResponse{
			ID: rec.ID, Name: rec.Name, ConfigHash: rec.ConfigHash,
			State: rec.State, CacheHit: rec.CacheHit,
		})
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		recs, err := s.Runs()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "store_error", err.Error(), nil)
			return
		}
		if recs == nil {
			recs = []RunRecord{}
		}
		writeJSON(w, http.StatusOK, runsResponse{Runs: recs})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var (
			rec RunRecord
			err error
		)
		if r.URL.Query().Get("wait") == "1" {
			rec, err = s.WaitRun(r.PathValue("id"))
		} else {
			rec, err = s.Run(r.PathValue("id"))
		}
		if err != nil {
			writeLookupError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/runs/{id}/export", func(w http.ResponseWriter, r *http.Request) {
		cell, ok := fetchCell(w, s, r.PathValue("id"))
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(cell.Export)
	})
	mux.HandleFunc("GET /v1/runs/{id}/telemetry", func(w http.ResponseWriter, r *http.Request) {
		cell, ok := fetchCell(w, s, r.PathValue("id"))
		if !ok {
			return
		}
		if len(cell.Telemetry) == 0 {
			writeError(w, http.StatusNotFound, "no_telemetry",
				"the run did not request telemetry (set \"telemetry\": true in the scenario)", nil)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(cell.Telemetry)
	})
	mux.HandleFunc("GET /v1/runs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		cell, ok := fetchCell(w, s, r.PathValue("id"))
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(cell.Trace)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		hashes, err := s.repo.CellHashes()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "store_error", err.Error(), nil)
			return
		}
		writeJSON(w, http.StatusOK, statsResponse{Stats: s.Stats(), Cells: len(hashes)})
	})
	return mux
}

func cacheHeader(rec RunRecord) string {
	if rec.CacheHit {
		return "hit"
	}
	return "miss"
}

// fetchCell resolves a run ID to its completed cell, writing the error
// envelope itself when the run is missing, queued or failed.
func fetchCell(w http.ResponseWriter, s *Service, id string) (Cell, bool) {
	cell, err := s.Cell(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, "not_found", err.Error(), nil)
		case errors.Is(err, ErrNotReady):
			writeError(w, http.StatusConflict, "not_ready", err.Error(), nil)
		case errors.Is(err, ErrRunFailed):
			writeError(w, http.StatusConflict, "run_failed", err.Error(), nil)
		case errors.Is(err, ErrCorrupt):
			writeError(w, http.StatusInternalServerError, "store_corrupt", err.Error(), nil)
		default:
			writeError(w, http.StatusInternalServerError, "store_error", err.Error(), nil)
		}
		return Cell{}, false
	}
	return cell, true
}

// writeSubmitError maps a Submit failure onto the envelope: a store failure
// is a 500 store_error, scenario validation failures carry their located
// issues, and everything else (malformed JSON, wrong kind, unknown app or
// tool) is a plain invalid_scenario.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrStore) {
		writeError(w, http.StatusInternalServerError, "store_error", err.Error(), nil)
		return
	}
	var inv *scenario.InvalidError
	if errors.As(err, &inv) {
		issues := make([]apiIssue, 0, len(inv.Issues))
		for _, is := range inv.Issues {
			issues = append(issues, apiIssue{Path: is.Path, Msg: is.Msg})
		}
		writeError(w, http.StatusBadRequest, "invalid_scenario", "the document failed validation", issues)
		return
	}
	writeError(w, http.StatusBadRequest, "invalid_scenario", err.Error(), nil)
}

func writeLookupError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, "not_found", err.Error(), nil)
		return
	}
	writeError(w, http.StatusInternalServerError, "store_error", err.Error(), nil)
}

func writeError(w http.ResponseWriter, status int, code, message string, issues []apiIssue) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: code, Message: message, Issues: issues}})
}

// writeJSON renders v indented with a trailing newline — the same stable
// shape the export writer uses, so API goldens pin bytes, not just fields.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
