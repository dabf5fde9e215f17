package service_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"taopt/internal/service"
	"taopt/internal/service/servicetest"
)

// Both repository implementations pass the one exported contract; any future
// store earns correctness the same way.
func TestMemRepoContract(t *testing.T) {
	servicetest.RunRepositoryContract(t, func(t *testing.T) service.Repository {
		return service.NewMemRepo()
	})
}

func TestFileRepoContract(t *testing.T) {
	servicetest.RunRepositoryContract(t, func(t *testing.T) service.Repository {
		repo, err := service.NewFileRepo(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return repo
	})
}

// storedCell persists one well-formed cell and returns the repo and the
// on-disk cell directory, ready for sabotage.
func storedCell(t *testing.T) (*service.FileRepo, string) {
	t.Helper()
	repo, err := service.NewFileRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := service.Cell{
		ConfigHash: "deadbeef", App: "Zedge", Tool: "monkey", Setting: "baseline",
		Export:    []byte(`{"format_version": 5}` + "\n"),
		Telemetry: []byte("digest\n"),
		Trace:     []byte{1, 2, 3, 4},
	}
	if err := repo.PutCell(c); err != nil {
		t.Fatal(err)
	}
	return repo, filepath.Join(repo.Dir(), "cells", "deadbeef")
}

// wantCorrupt asserts GetCell and CheckCell failures that are ErrCorrupt —
// and specifically not a clean miss, because the service recomputes over
// corruption but must never mistake it for "nothing stored".
func wantCorrupt(t *testing.T, repo *service.FileRepo, hash string) {
	t.Helper()
	_, gerr := repo.GetCell(hash)
	for _, c := range []struct {
		op  string
		err error
	}{{"GetCell", gerr}, {"CheckCell", repo.CheckCell(hash)}} {
		if !errors.Is(c.err, service.ErrCorrupt) {
			t.Fatalf("%s = %v, want errors.Is ErrCorrupt", c.op, c.err)
		}
		if errors.Is(c.err, service.ErrNotFound) {
			t.Fatalf("%s: corruption must not look like a miss: %v", c.op, c.err)
		}
	}
}

func TestFileRepoDetectsTruncatedPart(t *testing.T) {
	repo, dir := storedCell(t)
	full, err := os.ReadFile(filepath.Join(dir, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "export.json"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoDetectsTamperedPart(t *testing.T) {
	repo, dir := storedCell(t)
	if err := os.WriteFile(filepath.Join(dir, "telemetry.txt"), []byte("edited\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoDetectsMissingPart(t *testing.T) {
	repo, dir := storedCell(t)
	if err := os.Remove(filepath.Join(dir, "trace.taoptb")); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoDetectsMissingManifest(t *testing.T) {
	repo, dir := storedCell(t)
	if err := os.Remove(filepath.Join(dir, "cell.json")); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoDetectsGarbageManifest(t *testing.T) {
	repo, dir := storedCell(t)
	if err := os.WriteFile(filepath.Join(dir, "cell.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoDetectsRelocatedCell(t *testing.T) {
	repo, dir := storedCell(t)
	// A cell copied under the wrong hash must not serve: its manifest still
	// names the hash it was computed for.
	moved := filepath.Join(filepath.Dir(dir), "cafef00d")
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "cafef00d")
}

// A part larger than CheckCell's read buffer is verified to its last byte.
func TestFileRepoDetectsTamperedTailOfLargePart(t *testing.T) {
	repo, err := service.NewFileRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trace := bytes.Repeat([]byte("taoptb"), 50_000) // ~300 KB: many buffers
	if err := repo.PutCell(service.Cell{ConfigHash: "deadbeef", Export: []byte("e"), Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if err := repo.CheckCell("deadbeef"); err != nil {
		t.Fatalf("CheckCell(intact) = %v", err)
	}
	trace[len(trace)-1] ^= 1
	path := filepath.Join(repo.Dir(), "cells", "deadbeef", "trace.taoptb")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
}

func TestFileRepoPutReplacesCorruptCell(t *testing.T) {
	repo, dir := storedCell(t)
	if err := os.WriteFile(filepath.Join(dir, "export.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, repo, "deadbeef")
	// The recovery path: PutCell over the corrupt directory heals it.
	fresh := service.Cell{
		ConfigHash: "deadbeef", App: "Zedge", Tool: "monkey", Setting: "baseline",
		Export: []byte(`{"format_version": 5}` + "\n"),
		Trace:  []byte{1, 2, 3, 4},
	}
	if err := repo.PutCell(fresh); err != nil {
		t.Fatalf("PutCell over corrupt cell: %v", err)
	}
	got, err := repo.GetCell("deadbeef")
	if err != nil {
		t.Fatalf("GetCell after heal: %v", err)
	}
	if err := repo.CheckCell("deadbeef"); err != nil {
		t.Fatalf("CheckCell after heal: %v", err)
	}
	if string(got.Export) != string(fresh.Export) {
		t.Fatalf("healed export = %q", got.Export)
	}
}

func TestFileRepoDetectsGarbageRunFile(t *testing.T) {
	repo, err := service.NewFileRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := service.RunRecord{ID: "r-000001", State: service.StateDone}
	if err := repo.CreateRun(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(repo.Dir(), "runs", "r-000001.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.GetRun("r-000001"); !errors.Is(err, service.ErrCorrupt) {
		t.Fatalf("GetRun(garbage) = %v, want errors.Is ErrCorrupt", err)
	}
}

func TestFileRepoRejectsPathSyntaxKeys(t *testing.T) {
	repo, err := service.NewFileRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../escape", "a/b", ".hidden"} {
		if _, err := repo.GetRun(id); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("GetRun(%q) = %v, want errors.Is ErrNotFound", id, err)
		}
		if _, err := repo.GetCell(id); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("GetCell(%q) = %v, want errors.Is ErrNotFound", id, err)
		}
		if err := repo.CheckCell(id); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("CheckCell(%q) = %v, want errors.Is ErrNotFound", id, err)
		}
		if err := repo.CreateRun(service.RunRecord{ID: id}); err == nil {
			t.Fatalf("CreateRun(%q) accepted a path-syntax ID", id)
		}
	}
}

// The file store survives reopening: records and cells written by one handle
// are read back by a fresh one over the same directory.
func TestFileRepoReopens(t *testing.T) {
	dir := t.TempDir()
	repo, err := service.NewFileRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := service.RunRecord{ID: "r-000007", State: service.StateDone, ConfigHash: "deadbeef"}
	if err := repo.CreateRun(rec); err != nil {
		t.Fatal(err)
	}
	if err := repo.PutCell(service.Cell{ConfigHash: "deadbeef", Export: []byte("e"), Trace: []byte("t")}); err != nil {
		t.Fatal(err)
	}
	repo.Close()

	again, err := service.NewFileRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := again.GetRun("r-000007"); err != nil || got != rec {
		t.Fatalf("reopened GetRun = %+v, %v", got, err)
	}
	if _, err := again.GetCell("deadbeef"); err != nil {
		t.Fatalf("reopened GetCell: %v", err)
	}
}
