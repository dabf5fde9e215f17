package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileRepo is the append-friendly on-disk Repository under a data dir:
//
//	<dir>/runs/<id>.json            one record per submitted run
//	<dir>/cells/<hash>/cell.json    cell metadata + part checksums
//	<dir>/cells/<hash>/export.json  the v5 export, byte-for-byte
//	<dir>/cells/<hash>/telemetry.txt
//	<dir>/cells/<hash>/trace.taoptb
//
// Every write goes through a temp name plus rename, so a crash mid-write
// leaves either the old content or none; GetCell verifies each part against
// the checksums in cell.json and reports tampering or truncation as
// ErrCorrupt, which the service treats as a miss and recomputes over.
type FileRepo struct {
	dir string
}

// NewFileRepo opens (creating if needed) a file store under dir.
func NewFileRepo(dir string) (*FileRepo, error) {
	for _, sub := range []string{"runs", "cells"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: opening store: %w", err)
		}
	}
	return &FileRepo{dir: dir}, nil
}

// validKey guards every path component derived from caller input: run IDs
// and config hashes are ASCII words, never path syntax.
func validKey(k string) bool {
	if k == "" || strings.HasPrefix(k, ".") {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

func (f *FileRepo) runPath(id string) string { return filepath.Join(f.dir, "runs", id+".json") }

// writeFileAtomic writes data next to path and renames it into place.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// CreateRun implements Repository.
func (f *FileRepo) CreateRun(rec RunRecord) error {
	if !validKey(rec.ID) {
		return fmt.Errorf("service: invalid run ID %q", rec.ID)
	}
	if _, err := os.Stat(f.runPath(rec.ID)); err == nil {
		return fmt.Errorf("%w: run %s", ErrExists, rec.ID)
	}
	return f.writeRun(rec)
}

// UpdateRun implements Repository.
func (f *FileRepo) UpdateRun(rec RunRecord) error {
	if !validKey(rec.ID) {
		return fmt.Errorf("%w: run %q", ErrNotFound, rec.ID)
	}
	if _, err := os.Stat(f.runPath(rec.ID)); err != nil {
		return fmt.Errorf("%w: run %s", ErrNotFound, rec.ID)
	}
	return f.writeRun(rec)
}

func (f *FileRepo) writeRun(rec RunRecord) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("service: encoding run %s: %w", rec.ID, err)
	}
	if err := writeFileAtomic(f.runPath(rec.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("service: writing run %s: %w", rec.ID, err)
	}
	return nil
}

// GetRun implements Repository.
func (f *FileRepo) GetRun(id string) (RunRecord, error) {
	if !validKey(id) {
		return RunRecord{}, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	data, err := os.ReadFile(f.runPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return RunRecord{}, fmt.Errorf("%w: run %s", ErrNotFound, id)
		}
		return RunRecord{}, fmt.Errorf("service: reading run %s: %w", id, err)
	}
	var rec RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return RunRecord{}, fmt.Errorf("%w: run %s: %v", ErrCorrupt, id, err)
	}
	if rec.ID != id {
		return RunRecord{}, fmt.Errorf("%w: run file %s names ID %q", ErrCorrupt, id, rec.ID)
	}
	return rec, nil
}

// ListRuns implements Repository. os.ReadDir returns entries sorted by name
// and IDs are zero-padded, so the listing is in submission order.
func (f *FileRepo) ListRuns() ([]RunRecord, error) {
	entries, err := os.ReadDir(filepath.Join(f.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("service: listing runs: %w", err)
	}
	var out []RunRecord
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		rec, err := f.GetRun(name)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// cellMeta is the integrity manifest of one stored cell.
type cellMeta struct {
	ConfigHash   string `json:"configHash"`
	App          string `json:"app"`
	Tool         string `json:"tool"`
	Setting      string `json:"setting"`
	Seed         int64  `json:"seed"`
	ScenarioHash string `json:"scenarioHash"`
	// Parts maps part filename to its SHA-256 (hex); a part absent here is
	// absent from the cell (telemetry-less runs store no telemetry.txt).
	Parts map[string]string `json:"parts"`
}

const (
	partExport    = "export.json"
	partTelemetry = "telemetry.txt"
	partTrace     = "trace.taoptb"
)

func sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

func (f *FileRepo) cellDir(hash string) string { return filepath.Join(f.dir, "cells", hash) }

// PutCell implements Repository. The cell is assembled in a temp directory
// and renamed into place, replacing any previous cell under the hash, so
// readers never observe a half-written cell.
func (f *FileRepo) PutCell(c Cell) error {
	if !validKey(c.ConfigHash) {
		return fmt.Errorf("service: invalid cell hash %q", c.ConfigHash)
	}
	tmp := filepath.Join(f.dir, "cells", ".tmp-"+c.ConfigHash)
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("service: storing cell: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("service: storing cell: %w", err)
	}
	meta := cellMeta{
		ConfigHash: c.ConfigHash, App: c.App, Tool: c.Tool, Setting: c.Setting,
		Seed: c.Seed, ScenarioHash: c.ScenarioHash,
		Parts: map[string]string{partExport: sum(c.Export), partTrace: sum(c.Trace)},
	}
	parts := map[string][]byte{partExport: c.Export, partTrace: c.Trace}
	if len(c.Telemetry) > 0 {
		meta.Parts[partTelemetry] = sum(c.Telemetry)
		parts[partTelemetry] = c.Telemetry
	}
	for _, name := range sortedPartNames(parts) {
		if err := os.WriteFile(filepath.Join(tmp, name), parts[name], 0o644); err != nil {
			return fmt.Errorf("service: storing cell part %s: %w", name, err)
		}
	}
	mdata, err := json.MarshalIndent(meta, "", " ")
	if err != nil {
		return fmt.Errorf("service: encoding cell meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "cell.json"), append(mdata, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: storing cell meta: %w", err)
	}
	dst := f.cellDir(c.ConfigHash)
	if err := os.RemoveAll(dst); err != nil {
		return fmt.Errorf("service: replacing cell: %w", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("service: storing cell: %w", err)
	}
	return nil
}

func sortedPartNames(parts map[string][]byte) []string {
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	// Deterministic write order keeps crash states enumerable; the read side
	// never depends on it because the rename is the commit point.
	sort.Strings(names)
	return names
}

// GetCell implements Repository, verifying every part against cell.json.
func (f *FileRepo) GetCell(hash string) (Cell, error) {
	if !validKey(hash) {
		return Cell{}, fmt.Errorf("%w: cell %q", ErrNotFound, hash)
	}
	dir := f.cellDir(hash)
	mdata, err := os.ReadFile(filepath.Join(dir, "cell.json"))
	if err != nil {
		if os.IsNotExist(err) {
			if _, serr := os.Stat(dir); serr == nil {
				// The directory exists without its manifest: an interrupted
				// or tampered cell, not a clean miss.
				return Cell{}, fmt.Errorf("%w: cell %s has no manifest", ErrCorrupt, hash)
			}
			return Cell{}, fmt.Errorf("%w: cell %s", ErrNotFound, hash)
		}
		return Cell{}, fmt.Errorf("service: reading cell %s: %w", hash, err)
	}
	var meta cellMeta
	if err := json.Unmarshal(mdata, &meta); err != nil {
		return Cell{}, fmt.Errorf("%w: cell %s manifest: %v", ErrCorrupt, hash, err)
	}
	if meta.ConfigHash != hash {
		return Cell{}, fmt.Errorf("%w: cell %s manifest names hash %q", ErrCorrupt, hash, meta.ConfigHash)
	}
	c := Cell{
		ConfigHash: meta.ConfigHash, App: meta.App, Tool: meta.Tool, Setting: meta.Setting,
		Seed: meta.Seed, ScenarioHash: meta.ScenarioHash,
	}
	read := func(name string) ([]byte, error) {
		want, ok := meta.Parts[name]
		if !ok {
			return nil, nil
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("%w: cell %s part %s: %v", ErrCorrupt, hash, name, err)
		}
		if sum(data) != want {
			return nil, fmt.Errorf("%w: cell %s part %s fails its checksum", ErrCorrupt, hash, name)
		}
		return data, nil
	}
	if c.Export, err = read(partExport); err != nil {
		return Cell{}, err
	}
	if c.Telemetry, err = read(partTelemetry); err != nil {
		return Cell{}, err
	}
	if c.Trace, err = read(partTrace); err != nil {
		return Cell{}, err
	}
	return c, nil
}

// CellHashes implements Repository.
func (f *FileRepo) CellHashes() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(f.dir, "cells"))
	if err != nil {
		return nil, fmt.Errorf("service: listing cells: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// Close implements Repository.
func (f *FileRepo) Close() error { return nil }
