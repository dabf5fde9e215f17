package service_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/scenario"
	"taopt/internal/service"
	"taopt/internal/sim"
)

const oracleDoc = `{"kind": "run", "name": "oracle", "run": {
	"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
	"durationMin": 6, "seed": 7}}`

// Same configuration, different name: must resolve to the same cache cell.
const oracleDocRenamed = `{"kind": "run", "name": "oracle, resubmitted", "run": {
	"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
	"durationMin": 6, "seed": 7}}`

func mustSubmitWait(t *testing.T, svc *service.Service, doc string) service.RunRecord {
	t.Helper()
	rec, err := svc.Submit([]byte(doc))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rec, err = svc.WaitRun(rec.ID)
	if err != nil {
		t.Fatalf("WaitRun(%s): %v", rec.ID, err)
	}
	return rec
}

// The cache-equivalence oracle: a cell served from the cache is byte-identical
// to the fresh compute, and the fresh compute itself is byte-identical to an
// offline harness run of the equivalent hand-built config — the property that
// makes cache-serving safe at all.
func TestServiceCacheEquivalenceOracle(t *testing.T) {
	dir := t.TempDir()
	repo, err := service.NewFileRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Repo: repo})
	if err != nil {
		t.Fatal(err)
	}

	rec := mustSubmitWait(t, svc, oracleDoc)
	if rec.State != service.StateDone || rec.CacheHit {
		t.Fatalf("fresh run settled as %+v", rec)
	}
	cell, err := svc.Cell(rec.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The offline equivalent of the document, built the way cmd/taopt does.
	res, err := harness.Run(harness.RunConfig{
		App:          apps.MustLoad("Filters For Selfie"),
		Tool:         "monkey",
		Setting:      harness.TaOPTDuration,
		Duration:     6 * sim.Duration(60e9),
		Seed:         7,
		ScenarioHash: apps.Hash("Filters For Selfie"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := export.FromResult(res).Write(&offline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cell.Export, offline.Bytes()) {
		t.Fatalf("service export diverges from the offline compute (%d vs %d bytes)",
			len(cell.Export), offline.Len())
	}
	if cell.ScenarioHash != apps.Hash("Filters For Selfie") {
		t.Fatalf("cell scenario hash = %q", cell.ScenarioHash)
	}

	// Resubmit under another name: an immediate hit, byte-identical.
	rec2 := mustSubmitWait(t, svc, oracleDocRenamed)
	if rec2.State != service.StateDone || !rec2.CacheHit {
		t.Fatalf("resubmit settled as %+v, want a done cache hit", rec2)
	}
	if rec2.ConfigHash != rec.ConfigHash {
		t.Fatalf("renamed document changed the cache key: %s vs %s", rec2.ConfigHash, rec.ConfigHash)
	}
	cell2, err := svc.Cell(rec2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cell2.Export, cell.Export) || !bytes.Equal(cell2.Trace, cell.Trace) {
		t.Fatal("cache hit is not byte-identical to the fresh compute")
	}
	if st := svc.Stats(); st.Computed != 1 || st.CacheHits != 1 || st.Submitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	svc.Close()

	// A restarted service over the same directory serves the cell without
	// recomputing — durability is part of the oracle.
	repo2, err := service.NewFileRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := service.New(service.Config{Repo: repo2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	rec3 := mustSubmitWait(t, svc2, oracleDoc)
	if rec3.State != service.StateDone || !rec3.CacheHit {
		t.Fatalf("post-restart resubmit settled as %+v, want a done cache hit", rec3)
	}
	if rec3.ID != "r-000003" {
		t.Fatalf("restarted ID sequence = %s, want r-000003 (resume after the stored runs)", rec3.ID)
	}
	cell3, err := svc2.Cell(rec3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cell3.Export, cell.Export) {
		t.Fatal("post-restart cache hit is not byte-identical")
	}
	if st := svc2.Stats(); st.Computed != 0 || st.CacheHits != 1 {
		t.Fatalf("post-restart stats = %+v, want zero computes", st)
	}
}

// N concurrent identical submits compute exactly one cell. Run under -race
// this is also the service's data-race certificate.
func TestServiceSingleFlight(t *testing.T) {
	const n = 16
	var computes atomic.Int32
	release := make(chan struct{})
	svc, err := service.New(service.Config{
		Workers: 4,
		Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
			computes.Add(1)
			<-release // hold the flight open until every submit has landed
			return service.Cell{Export: []byte("export"), Trace: []byte("trace")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	doc := []byte(`{"kind": "run", "name": "flock", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline", "seed": 3}}`)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := svc.Submit(doc)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = rec.ID
		}(i)
	}
	wg.Wait()
	close(release)
	svc.Drain()

	if got := computes.Load(); got != 1 {
		t.Fatalf("exec ran %d times for %d identical submits, want exactly 1", got, n)
	}
	st := svc.Stats()
	if st.Computed != 1 || st.Coalesced != n-1 || st.Submitted != n || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	fresh := 0
	for _, id := range ids {
		rec, err := svc.WaitRun(id)
		if err != nil {
			t.Fatalf("WaitRun(%s): %v", id, err)
		}
		if rec.State != service.StateDone {
			t.Fatalf("run %s settled as %+v", id, rec)
		}
		if !rec.CacheHit {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d runs claim the fresh compute, want exactly 1", fresh)
	}
}

// A corrupt stored cell is a miss, not an error: the next submit of the same
// configuration recomputes and heals the store.
func TestServiceRecomputesOverCorruptCell(t *testing.T) {
	var computes atomic.Int32
	repo := &corruptibleRepo{Repository: service.NewMemRepo()}
	svc, err := service.New(service.Config{
		Repo: repo,
		Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
			computes.Add(1)
			return service.Cell{Export: []byte("export"), Trace: []byte("trace")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	doc := `{"kind": "run", "name": "healme", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline"}}`
	rec := mustSubmitWait(t, svc, doc)
	if rec.State != service.StateDone || computes.Load() != 1 {
		t.Fatalf("first run: %+v, computes=%d", rec, computes.Load())
	}

	repo.corrupt = true // every GetCell now reports ErrCorrupt
	rec2 := mustSubmitWait(t, svc, doc)
	repo.corrupt = false
	if rec2.State != service.StateDone || rec2.CacheHit {
		t.Fatalf("recovery run settled as %+v, want a fresh compute", rec2)
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2 (corruption must trigger a recompute)", computes.Load())
	}
	if _, err := svc.Cell(rec2.ID); err != nil {
		t.Fatalf("store not healed: %v", err)
	}
}

// corruptibleRepo wraps a Repository and, when armed, fails every GetCell
// with ErrCorrupt — the in-memory stand-in for a damaged file store.
type corruptibleRepo struct {
	service.Repository
	corrupt bool
}

func (r *corruptibleRepo) GetCell(hash string) (service.Cell, error) {
	if r.corrupt {
		return service.Cell{}, fmt.Errorf("%w: armed for the test", service.ErrCorrupt)
	}
	return r.Repository.GetCell(hash)
}

// A failing compute settles every attached run as failed, and the failure is
// not cached: the next submit tries again.
func TestServiceFailureSettlesRuns(t *testing.T) {
	fail := true
	svc, err := service.New(service.Config{
		Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
			if fail {
				return service.Cell{}, errors.New("device farm on fire")
			}
			return service.Cell{Export: []byte("ok"), Trace: []byte("t")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	doc := `{"kind": "run", "name": "doomed", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline"}}`
	rec := mustSubmitWait(t, svc, doc)
	if rec.State != service.StateFailed || rec.Error != "device farm on fire" {
		t.Fatalf("failed run settled as %+v", rec)
	}
	if _, err := svc.Cell(rec.ID); !errors.Is(err, service.ErrRunFailed) {
		t.Fatalf("Cell(failed run) = %v, want errors.Is ErrRunFailed", err)
	}
	if st := svc.Stats(); st.Failures != 1 || st.Computed != 0 {
		t.Fatalf("stats = %+v", st)
	}

	fail = false
	rec2 := mustSubmitWait(t, svc, doc)
	if rec2.State != service.StateDone || rec2.CacheHit {
		t.Fatalf("retry settled as %+v, want a fresh successful compute", rec2)
	}
}

// Fetching a still-queued run's result is ErrNotReady, not a store error.
func TestServiceCellNotReady(t *testing.T) {
	release := make(chan struct{})
	svc, err := service.New(service.Config{
		Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
			<-release
			return service.Cell{Export: []byte("e"), Trace: []byte("t")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec, err := svc.Submit([]byte(`{"kind": "run", "name": "slow", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != service.StateQueued {
		t.Fatalf("submit-time state = %q", rec.State)
	}
	if _, err := svc.Cell(rec.ID); !errors.Is(err, service.ErrNotReady) {
		t.Fatalf("Cell(queued) = %v, want errors.Is ErrNotReady", err)
	}
	close(release)
	if rec, err = svc.WaitRun(rec.ID); err != nil || rec.State != service.StateDone {
		t.Fatalf("after release: %+v, %v", rec, err)
	}
}

// A restarted service fails runs its predecessor left queued — they can never
// finish — and resumes the ID sequence after the highest stored run.
func TestServiceRestartFailsInterruptedRuns(t *testing.T) {
	repo, err := service.NewFileRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orphan := service.RunRecord{
		ID: "r-000005", Name: "interrupted", ConfigHash: "deadbeef",
		App: "Zedge", Tool: "monkey", Setting: "baseline", State: service.StateQueued,
	}
	if err := repo.CreateRun(orphan); err != nil {
		t.Fatal(err)
	}

	svc, err := service.New(service.Config{Repo: repo, Exec: func(rs *scenario.RunSpec) (service.Cell, error) {
		return service.Cell{Export: []byte("e"), Trace: []byte("t")}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rec, err := svc.Run("r-000005")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != service.StateFailed || rec.Error == "" {
		t.Fatalf("orphaned run = %+v, want failed with a message", rec)
	}
	next, err := svc.Submit([]byte(`{"kind": "run", "name": "after restart", "run": {
		"app": "Zedge", "tool": "monkey", "setting": "baseline"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "r-000006" {
		t.Fatalf("post-restart ID = %s, want r-000006", next.ID)
	}
}

// With the real backend, documents the harness cannot run are rejected at
// submit time instead of queueing a doomed run, with the same error the
// harness would have failed the run with.
func TestServiceRejectsUnrunnableAtSubmit(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, tc := range []struct{ what, doc string }{
		{"unknown catalog app", `{"kind": "run", "name": "x", "run": {
			"app": "No Such App", "tool": "monkey", "setting": "baseline"}}`},
		{"unknown tool", `{"kind": "run", "name": "x", "run": {
			"app": "Zedge", "tool": "hypermonkey", "setting": "baseline"}}`},
		{"unknown tool on an inline app", `{"kind": "run", "name": "x", "run": {
			"inlineApp": {"name": "Tiny", "app": {"subspaces": 4}},
			"tool": "hypermonkey", "setting": "baseline"}}`},
	} {
		_, err := svc.Submit([]byte(tc.doc))
		if err == nil {
			t.Fatalf("%s accepted", tc.what)
		}
		rs, cerr := scenario.CompileRun([]byte(tc.doc))
		if cerr != nil {
			t.Fatalf("%s: %v", tc.what, cerr)
		}
		if _, want := harness.FromRunScenario(rs); want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: submit error %q, harness error %v", tc.what, err, want)
		}
	}
	if st := svc.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected submits counted: %+v", st)
	}
}
