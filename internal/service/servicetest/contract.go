// Package servicetest exports the storage-agnostic contract suite every
// service.Repository implementation must pass. The suite pins the seam the
// campaign service stands on — create/get/list/update semantics for run
// records, idempotent cell puts, and sentinel-error discrimination via
// errors.Is only — so a new store (memory, file, or anything later) is
// correct by construction once RunRepositoryContract passes over it.
package servicetest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"taopt/internal/service"
)

// NewRepo builds a fresh, empty repository for one subtest.
type NewRepo func(t *testing.T) service.Repository

// RunRepositoryContract runs the full contract against repositories built by
// newRepo.
func RunRepositoryContract(t *testing.T, newRepo NewRepo) {
	t.Run("RunLifecycle", func(t *testing.T) { testRunLifecycle(t, newRepo(t)) })
	t.Run("RunSentinels", func(t *testing.T) { testRunSentinels(t, newRepo(t)) })
	t.Run("ListOrder", func(t *testing.T) { testListOrder(t, newRepo(t)) })
	t.Run("CellRoundTrip", func(t *testing.T) { testCellRoundTrip(t, newRepo(t)) })
	t.Run("CellIdempotentPut", func(t *testing.T) { testCellIdempotentPut(t, newRepo(t)) })
	t.Run("CellSentinels", func(t *testing.T) { testCellSentinels(t, newRepo(t)) })
	t.Run("CellHashes", func(t *testing.T) { testCellHashes(t, newRepo(t)) })
}

func rec(id string) service.RunRecord {
	return service.RunRecord{
		ID: id, Name: "contract run", ConfigHash: "a1b2c3", App: "Zedge",
		Tool: "monkey", Setting: "baseline", Seed: 7, State: service.StateQueued,
	}
}

func cell(hash string) service.Cell {
	return service.Cell{
		ConfigHash: hash, App: "Zedge", Tool: "monkey", Setting: "baseline", Seed: 7,
		ScenarioHash: "feedbeef",
		Export:       []byte(`{"format_version": 5}` + "\n"),
		Telemetry:    []byte("digest\n"),
		Trace:        []byte{'T', 'A', 'O', 'P', 'T', 'T', 'B', 0, 1, 2, 3},
	}
}

func testRunLifecycle(t *testing.T, repo service.Repository) {
	defer repo.Close()
	r := rec("r-000001")
	if err := repo.CreateRun(r); err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	got, err := repo.GetRun(r.ID)
	if err != nil {
		t.Fatalf("GetRun: %v", err)
	}
	if got != r {
		t.Fatalf("GetRun = %+v, want %+v", got, r)
	}
	r.State = service.StateDone
	r.CacheHit = true
	if err := repo.UpdateRun(r); err != nil {
		t.Fatalf("UpdateRun: %v", err)
	}
	if got, err = repo.GetRun(r.ID); err != nil || got != r {
		t.Fatalf("after update: %+v, %v; want %+v", got, err, r)
	}
}

func testRunSentinels(t *testing.T, repo service.Repository) {
	defer repo.Close()
	if _, err := repo.GetRun("r-999999"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("GetRun(missing) = %v, want errors.Is ErrNotFound", err)
	}
	if err := repo.UpdateRun(rec("r-999999")); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("UpdateRun(missing) = %v, want errors.Is ErrNotFound", err)
	}
	r := rec("r-000001")
	if err := repo.CreateRun(r); err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	if err := repo.CreateRun(r); !errors.Is(err, service.ErrExists) {
		t.Fatalf("CreateRun(duplicate) = %v, want errors.Is ErrExists", err)
	}
	// Sentinels must not cross-match: a duplicate is not a missing key.
	if err := repo.CreateRun(r); errors.Is(err, service.ErrNotFound) {
		t.Fatalf("CreateRun(duplicate) matches ErrNotFound: %v", err)
	}
}

func testListOrder(t *testing.T, repo service.Repository) {
	defer repo.Close()
	// Created out of order; listed in ID order.
	for _, id := range []string{"r-000002", "r-000010", "r-000001"} {
		if err := repo.CreateRun(rec(id)); err != nil {
			t.Fatalf("CreateRun(%s): %v", id, err)
		}
	}
	recs, err := repo.ListRuns()
	if err != nil {
		t.Fatalf("ListRuns: %v", err)
	}
	want := []string{"r-000001", "r-000002", "r-000010"}
	if len(recs) != len(want) {
		t.Fatalf("ListRuns returned %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i].ID != w {
			t.Fatalf("ListRuns[%d].ID = %s, want %s (IDs must sort)", i, recs[i].ID, w)
		}
	}
}

func testCellRoundTrip(t *testing.T, repo service.Repository) {
	defer repo.Close()
	c := cell("a1b2c3")
	if err := repo.PutCell(c); err != nil {
		t.Fatalf("PutCell: %v", err)
	}
	if err := repo.CheckCell(c.ConfigHash); err != nil {
		t.Fatalf("CheckCell: %v", err)
	}
	got, err := repo.GetCell(c.ConfigHash)
	if err != nil {
		t.Fatalf("GetCell: %v", err)
	}
	if got.ConfigHash != c.ConfigHash || got.App != c.App || got.Tool != c.Tool ||
		got.Setting != c.Setting || got.Seed != c.Seed || got.ScenarioHash != c.ScenarioHash {
		t.Fatalf("metadata mangled: %+v, want %+v", got, c)
	}
	if !bytes.Equal(got.Export, c.Export) || !bytes.Equal(got.Telemetry, c.Telemetry) || !bytes.Equal(got.Trace, c.Trace) {
		t.Fatal("cell payloads must round-trip byte-for-byte")
	}

	// A telemetry-less cell round-trips with empty telemetry, not an error.
	lean := cell("d4e5f6")
	lean.Telemetry = nil
	if err := repo.PutCell(lean); err != nil {
		t.Fatalf("PutCell(no telemetry): %v", err)
	}
	if got, err = repo.GetCell(lean.ConfigHash); err != nil || len(got.Telemetry) != 0 {
		t.Fatalf("telemetry-less cell: %v, telemetry=%q", err, got.Telemetry)
	}
	if err := repo.CheckCell(lean.ConfigHash); err != nil {
		t.Fatalf("CheckCell(no telemetry): %v", err)
	}
}

func testCellIdempotentPut(t *testing.T, repo service.Repository) {
	defer repo.Close()
	c := cell("a1b2c3")
	if err := repo.PutCell(c); err != nil {
		t.Fatalf("PutCell: %v", err)
	}
	if err := repo.PutCell(c); err != nil {
		t.Fatalf("PutCell must be idempotent, second put: %v", err)
	}
	// A replacement put wins — the service overwrites corrupt cells.
	c.Export = []byte(`{"format_version": 5, "replaced": true}` + "\n")
	if err := repo.PutCell(c); err != nil {
		t.Fatalf("PutCell(replace): %v", err)
	}
	got, err := repo.GetCell(c.ConfigHash)
	if err != nil {
		t.Fatalf("GetCell: %v", err)
	}
	if !bytes.Equal(got.Export, c.Export) {
		t.Fatal("replacement put did not win")
	}
	hashes, err := repo.CellHashes()
	if err != nil {
		t.Fatalf("CellHashes: %v", err)
	}
	if len(hashes) != 1 {
		t.Fatalf("replacing a cell must not duplicate it: %v", hashes)
	}
}

func testCellSentinels(t *testing.T, repo service.Repository) {
	defer repo.Close()
	if _, err := repo.GetCell("0000missing"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("GetCell(missing) = %v, want errors.Is ErrNotFound", err)
	}
	if _, err := repo.GetCell("0000missing"); errors.Is(err, service.ErrCorrupt) {
		t.Fatal("a clean miss must not match ErrCorrupt")
	}
	// CheckCell answers with GetCell's sentinel.
	if err := repo.CheckCell("0000missing"); !errors.Is(err, service.ErrNotFound) || errors.Is(err, service.ErrCorrupt) {
		t.Fatalf("CheckCell(missing) = %v, want errors.Is ErrNotFound only", err)
	}
}

func testCellHashes(t *testing.T, repo service.Repository) {
	defer repo.Close()
	var want []string
	for i := 0; i < 3; i++ {
		h := fmt.Sprintf("hash-%02d", 3-i) // inserted in reverse
		if err := repo.PutCell(cell(h)); err != nil {
			t.Fatalf("PutCell: %v", err)
		}
	}
	for i := 1; i <= 3; i++ {
		want = append(want, fmt.Sprintf("hash-%02d", i))
	}
	got, err := repo.CellHashes()
	if err != nil {
		t.Fatalf("CellHashes: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("CellHashes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CellHashes = %v, want sorted %v", got, want)
		}
	}
}
