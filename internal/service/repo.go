// Package service is the taoptd campaign service: run submission over the
// scenario DSL, a content-hash-cached run store behind a storage-agnostic
// Repository seam, and single-flight de-duplication so N concurrent
// identical submits compute exactly one cell. The deterministic core stays
// untouched underneath — a run is a pure function of its scenario document,
// which is what makes serving a cached cell safe: a hit is byte-identical
// to a fresh compute by construction, and the test layer proves it.
//
// The package contains no wall-clock reads and no global randomness (the
// repo-wide determinism lint applies to it like any other internal package):
// run records carry states, not timestamps, and identity comes from the
// scenario document's canonical hash.
package service

import "errors"

// Sentinel errors of the repository seam. Callers discriminate with
// errors.Is only; implementations wrap them with context.
var (
	// ErrNotFound reports a missing run or cell key.
	ErrNotFound = errors.New("service: not found")
	// ErrExists reports a CreateRun with an already-used ID.
	ErrExists = errors.New("service: run already exists")
	// ErrCorrupt reports a stored cell that failed its integrity check
	// (truncated part, checksum mismatch, unreadable metadata). The service
	// treats it as a cache miss and recomputes over it.
	ErrCorrupt = errors.New("service: corrupt record")
)

// Run states. Plain strings, not a named enum: they cross the JSON API
// boundary verbatim.
const (
	StateQueued = "queued"
	StateDone   = "done"
	StateFailed = "failed"
)

// RunRecord is one submitted run: the queue-visible identity and lifecycle
// of a request, separate from the cached result it resolves to. Records
// deliberately carry no timestamps — the service is part of the
// deterministic tree, and ordering comes from the zero-padded ID sequence.
type RunRecord struct {
	// ID is the service-assigned identifier ("r-000001", zero-padded so
	// lexical and submission order coincide).
	ID string `json:"id"`
	// Name is the scenario document's name (display only; it is excluded
	// from the cache key).
	Name string `json:"name"`
	// ConfigHash is the canonical hash of the run document minus its name —
	// the key of the cell this run resolves to.
	ConfigHash string `json:"configHash"`
	App        string `json:"app"`
	Tool       string `json:"tool"`
	Setting    string `json:"setting"`
	Seed       int64  `json:"seed"`
	// State is StateQueued, StateDone or StateFailed.
	State string `json:"state"`
	// CacheHit reports that this run was served from a previously computed
	// cell (including coalesced submits that attached to another run's
	// in-flight compute).
	CacheHit bool `json:"cacheHit"`
	// Error carries the failure message when State is StateFailed.
	Error string `json:"error,omitempty"`
}

// Cell is one computed run result, keyed by ConfigHash: the v5 export bytes,
// the rendered telemetry digest (empty when the run did not request
// telemetry) and the binary trace stream.
type Cell struct {
	ConfigHash string
	App        string
	Tool       string
	Setting    string
	Seed       int64
	// ScenarioHash is the app document hash stamped into the export
	// (export v5's scenario_hash).
	ScenarioHash string
	Export       []byte
	Telemetry    []byte
	Trace        []byte
}

// Repository persists run records and completed cells. Implementations must
// be safe for concurrent use; the contract (including sentinel semantics) is
// pinned by servicetest.RunRepositoryContract over every implementation.
type Repository interface {
	// CreateRun stores a new record; an already-used ID is ErrExists.
	CreateRun(rec RunRecord) error
	// UpdateRun replaces an existing record; a missing ID is ErrNotFound.
	UpdateRun(rec RunRecord) error
	// GetRun returns the record for id, or ErrNotFound.
	GetRun(id string) (RunRecord, error)
	// ListRuns returns every record sorted by ID.
	ListRuns() ([]RunRecord, error)
	// PutCell stores a completed cell, replacing any previous cell under the
	// same ConfigHash (idempotent: re-putting an identical cell succeeds).
	PutCell(c Cell) error
	// GetCell returns the cell for hash: ErrNotFound when absent, ErrCorrupt
	// when present but failing its integrity check.
	GetCell(hash string) (Cell, error)
	// CheckCell answers whether GetCell(hash) would succeed, with the same
	// sentinel on failure (ErrNotFound, ErrCorrupt), but keeps no bytes: it
	// is the service's hit check, which needs the verdict, not the cell.
	CheckCell(hash string) error
	// CellHashes returns every stored cell key, sorted.
	CellHashes() ([]string, error)
	// Close releases the store.
	Close() error
}
