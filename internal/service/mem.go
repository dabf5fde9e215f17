package service

import (
	"fmt"
	"sort"
	"sync"
)

// MemRepo is the in-memory Repository: the default store of a taoptd run
// without a data dir, and the reference implementation the contract suite
// measures the file store against.
type MemRepo struct {
	mu    sync.Mutex
	runs  map[string]RunRecord
	cells map[string]Cell
}

// NewMemRepo returns an empty in-memory store.
func NewMemRepo() *MemRepo {
	return &MemRepo{runs: make(map[string]RunRecord), cells: make(map[string]Cell)}
}

// CreateRun implements Repository.
func (m *MemRepo) CreateRun(rec RunRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.runs[rec.ID]; ok {
		return fmt.Errorf("%w: run %s", ErrExists, rec.ID)
	}
	m.runs[rec.ID] = rec
	return nil
}

// UpdateRun implements Repository.
func (m *MemRepo) UpdateRun(rec RunRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.runs[rec.ID]; !ok {
		return fmt.Errorf("%w: run %s", ErrNotFound, rec.ID)
	}
	m.runs[rec.ID] = rec
	return nil
}

// GetRun implements Repository.
func (m *MemRepo) GetRun(id string) (RunRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.runs[id]
	if !ok {
		return RunRecord{}, fmt.Errorf("%w: run %s", ErrNotFound, id)
	}
	return rec, nil
}

// ListRuns implements Repository.
func (m *MemRepo) ListRuns() ([]RunRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.runs))
	for id := range m.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]RunRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, m.runs[id])
	}
	return out, nil
}

// PutCell implements Repository.
func (m *MemRepo) PutCell(c Cell) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.ConfigHash == "" {
		return fmt.Errorf("service: PutCell with empty ConfigHash")
	}
	// Copy the byte payloads so a caller mutating its buffers afterwards
	// cannot corrupt the cache — the file store has the same isolation by
	// virtue of writing to disk.
	c.Export = append([]byte(nil), c.Export...)
	c.Telemetry = append([]byte(nil), c.Telemetry...)
	c.Trace = append([]byte(nil), c.Trace...)
	m.cells[c.ConfigHash] = c
	return nil
}

// GetCell implements Repository.
func (m *MemRepo) GetCell(hash string) (Cell, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[hash]
	if !ok {
		return Cell{}, fmt.Errorf("%w: cell %s", ErrNotFound, hash)
	}
	return c, nil
}

// CheckCell implements Repository.
func (m *MemRepo) CheckCell(hash string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cells[hash]; !ok {
		return fmt.Errorf("%w: cell %s", ErrNotFound, hash)
	}
	return nil
}

// CellHashes implements Repository.
func (m *MemRepo) CellHashes() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cells))
	for h := range m.cells {
		out = append(out, h)
	}
	sort.Strings(out)
	return out, nil
}

// Close implements Repository.
func (m *MemRepo) Close() error { return nil }
