package service_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"taopt/internal/scenario"
	"taopt/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current run")

// goldenExec is a deterministic stub backend: the API layer is under test,
// not the simulator, so responses must be cheap and byte-stable.
func goldenExec(rs *scenario.RunSpec) (service.Cell, error) {
	if rs.Seed == 666 {
		return service.Cell{}, errors.New("simulated backend failure")
	}
	c := service.Cell{
		ScenarioHash: "0123abcd",
		Export:       []byte(fmt.Sprintf("{\n \"format_version\": 5,\n \"seed\": %d\n}\n", rs.Seed)),
		Trace:        []byte(fmt.Sprintf("taoptb-stub-trace seed=%d\n", rs.Seed)),
	}
	if rs.Telemetry {
		c.Telemetry = []byte(fmt.Sprintf("telemetry digest (seed %d)\n", rs.Seed))
	}
	return c, nil
}

const goldenDoc = `{"kind": "run", "name": "golden", "run": {
	"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
	"durationMin": 8, "seed": 15, "telemetry": true, "faults": {"failureRate": 0.2}}}`

const goldenDocRenamed = `{"kind": "run", "name": "golden, resubmitted", "run": {
	"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
	"durationMin": 8, "seed": 15, "telemetry": true, "faults": {"failureRate": 0.2}}}`

// TestAPIGolden scripts one session against the API and pins every response —
// status, content type, cache headers and body bytes — in a single golden
// file. Error envelopes are part of the contract: clients parse them.
func TestAPIGolden(t *testing.T) {
	svc, err := service.New(service.Config{Exec: goldenExec})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	handler := service.NewHandler(svc)

	var out strings.Builder
	do := func(title, method, target, body string) {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		res := rw.Result()
		fmt.Fprintf(&out, "== %s\nstatus: %d\ncontent-type: %s\n",
			title, res.StatusCode, res.Header.Get("Content-Type"))
		if id := res.Header.Get("X-Taopt-Run-Id"); id != "" {
			fmt.Fprintf(&out, "x-taopt-run-id: %s\n", id)
		}
		if c := res.Header.Get("X-Taopt-Cache"); c != "" {
			fmt.Fprintf(&out, "x-taopt-cache: %s\n", c)
		}
		out.WriteString(rw.Body.String())
		out.WriteString("\n")
	}

	do("healthz", "GET", "/healthz", "")
	do("submit fresh (wait)", "POST", "/v1/runs?wait=1", goldenDoc)
	do("submit renamed: cache hit", "POST", "/v1/runs?wait=1", goldenDocRenamed)
	do("run status", "GET", "/v1/runs/r-000001", "")
	do("run listing", "GET", "/v1/runs", "")
	do("export", "GET", "/v1/runs/r-000001/export", "")
	do("telemetry", "GET", "/v1/runs/r-000001/telemetry", "")
	do("trace", "GET", "/v1/runs/r-000001/trace", "")
	do("malformed document", "POST", "/v1/runs", `{"kind": "run",`)
	do("invalid document: located issues", "POST", "/v1/runs", `{"kind": "run", "name": "broken", "run": {
		"setting": "warp", "durationMin": -3}}`)
	do("wrong kind", "POST", "/v1/runs", `{"kind": "app", "name": "Tiny", "app": {"subspaces": 4}}`)
	do("unknown run", "GET", "/v1/runs/r-999999", "")
	do("unknown run export", "GET", "/v1/runs/r-999999/export", "")
	do("failing compute (wait)", "POST", "/v1/runs?wait=1", `{"kind": "run", "name": "doomed", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "baseline", "seed": 666}}`)
	do("failed run export", "GET", "/v1/runs/r-000003/export", "")
	do("submit without telemetry (wait)", "POST", "/v1/runs?wait=1", `{"kind": "run", "name": "lean", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "baseline", "seed": 4}}`)
	do("telemetry not requested", "GET", "/v1/runs/r-000004/telemetry", "")
	do("oversized body", "POST", "/v1/runs", strings.Repeat("x", 1<<20+1))
	do("stats", "GET", "/v1/stats", "")

	got := out.String()
	golden := filepath.Join("testdata", "api_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("API responses diverge from golden (rerun with -update and inspect the diff):\ngot:\n%s", got)
	}
}

// A body that fails to read for any reason but its size is a 400
// invalid_scenario carrying the read error; only an oversized body is a 413
// (pinned in the golden).
func TestAPIBodyReadError(t *testing.T) {
	svc, err := service.New(service.Config{Exec: goldenExec})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rw := httptest.NewRecorder()
	body := iotest.ErrReader(errors.New("connection reset"))
	service.NewHandler(svc).ServeHTTP(rw, httptest.NewRequest("POST", "/v1/runs", body))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope does not parse: %v\n%s", err, rw.Body.String())
	}
	if rw.Code != http.StatusBadRequest || env.Error.Code != "invalid_scenario" || env.Error.Message != "connection reset" {
		t.Fatalf("status %d, envelope %+v; want 400 invalid_scenario with the read error", rw.Code, env.Error)
	}
}

// A result fetch against a still-running compute is a pinned not_ready
// envelope, never a hang or a store error.
func TestAPINotReadyEnvelope(t *testing.T) {
	release := make(chan struct{})
	svc, err := service.New(service.Config{Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
		<-release
		return service.Cell{Export: []byte("e"), Trace: []byte("t")}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	handler := service.NewHandler(svc)

	req := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(goldenDoc))
	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 while queued", rw.Code)
	}

	req = httptest.NewRequest("GET", "/v1/runs/r-000001/export", nil)
	rw = httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	if rw.Code != http.StatusConflict {
		t.Fatalf("export status = %d, want 409", rw.Code)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope does not parse: %v\n%s", err, rw.Body.String())
	}
	if env.Error.Code != "not_ready" || !strings.Contains(env.Error.Message, "r-000001") {
		t.Fatalf("envelope = %+v", env.Error)
	}

	close(release)
	req = httptest.NewRequest("GET", "/v1/runs/r-000001?wait=1", nil)
	rw = httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	var rec service.RunRecord
	if err := json.Unmarshal(rw.Body.Bytes(), &rec); err != nil || rec.State != service.StateDone {
		t.Fatalf("waited status = %+v, %v", rec, err)
	}
}

// failingRepo fails CreateRun or UpdateRun with a plain store error, as a
// full disk would.
type failingRepo struct {
	service.Repository
	create, update error
}

func (r *failingRepo) CreateRun(rec service.RunRecord) error {
	if r.create != nil {
		return r.create
	}
	return r.Repository.CreateRun(rec)
}

func (r *failingRepo) UpdateRun(rec service.RunRecord) error {
	if r.update != nil {
		return r.update
	}
	return r.Repository.UpdateRun(rec)
}

// Store failures answer 500 store_error, promptly: a run record that cannot
// be created fails the submit, and one that cannot be settled fails the wait
// instead of spinning on it.
func TestAPIStoreErrors(t *testing.T) {
	diskFull := errors.New("disk full")
	for _, tc := range []struct {
		name   string
		repo   *failingRepo
		target string
	}{
		{"CreateRun fails", &failingRepo{create: diskFull}, "/v1/runs"},
		{"UpdateRun fails", &failingRepo{update: diskFull}, "/v1/runs?wait=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.repo.Repository = service.NewMemRepo()
			svc, err := service.New(service.Config{Repo: tc.repo, Exec: goldenExec})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			rw := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				service.NewHandler(svc).ServeHTTP(rw, httptest.NewRequest("POST", tc.target, strings.NewReader(goldenDoc)))
			}()
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Fatal("the request did not finish within 10 s")
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope does not parse: %v\n%s", err, rw.Body.String())
			}
			if rw.Code != http.StatusInternalServerError || env.Error.Code != "store_error" {
				t.Fatalf("status %d, envelope %+v; want 500 store_error", rw.Code, env.Error)
			}
			if !strings.Contains(env.Error.Message, "disk full") {
				t.Fatalf("message %q does not carry the store's error", env.Error.Message)
			}
			if tc.repo.update != nil {
				// A later wait, with the flight long gone, still finds the cause.
				if _, err := svc.WaitRun("r-000001"); !errors.Is(err, service.ErrStore) || !errors.Is(err, diskFull) {
					t.Fatalf("WaitRun(unsettled run) = %v, want errors.Is ErrStore and the store's error", err)
				}
			}
		})
	}
}
