package service

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/report"
	"taopt/internal/scenario"
)

// Lifecycle sentinels (errors.Is only, like the repository's).
var (
	// ErrNotReady reports a result fetch against a still-queued run.
	ErrNotReady = errors.New("service: run not ready")
	// ErrRunFailed reports a result fetch against a failed run.
	ErrRunFailed = errors.New("service: run failed")
	// ErrStore reports a repository failure the service cannot answer
	// around: a submit whose run record could not be created, or a run
	// whose record was never settled after its compute ended.
	ErrStore = errors.New("service: store failure")
)

// Stats is the service's cache-and-flight accounting.
type Stats struct {
	// Submitted counts accepted submissions (invalid scenarios are rejected
	// before they count).
	Submitted int `json:"submitted"`
	// Computed counts cells actually simulated. The single-flight guarantee
	// is expressed here: N concurrent identical submits move Computed by 1.
	Computed int `json:"computed"`
	// CacheHits counts submits served directly from a stored cell.
	CacheHits int `json:"cacheHits"`
	// Coalesced counts submits that attached to an in-flight identical
	// compute instead of starting their own.
	Coalesced int `json:"coalesced"`
	// Failures counts runs that ended in StateFailed.
	Failures int `json:"failures"`
}

// Config parameterises a Service.
type Config struct {
	// Repo is the run store (default: a fresh MemRepo).
	Repo Repository
	// Workers bounds concurrently executing computes (default 1; results
	// never depend on it — each cell is a pure function of its document).
	Workers int
	// Exec computes one cell from a compiled run scenario. Nil means the
	// real backend: lower onto harness.RunConfig, simulate, capture the v5
	// export, telemetry digest and binary trace. Tests stub it to count
	// computes without paying for simulation.
	Exec func(rs *scenario.RunSpec) (Cell, error)
}

// flight is one in-progress compute; identical submits attach their run
// records and wait on done instead of computing again.
type flight struct {
	done chan struct{}
	recs []RunRecord
}

// Service owns the run lifecycle: compile, de-duplicate, queue, execute,
// persist. All methods are safe for concurrent use.
//
// mu guards the ID sequence, the stats, the flights and the unsettled
// causes, plus the store writes that must agree with them: the run records
// of a coalesced or missed submit (runFlight settles them) and runFlight's
// PutCell and record updates. Store reads happen outside mu. A failed read
// is retried once under it, where no PutCell can be half done, so a cell
// being healed never shows as a spurious miss.
type Service struct {
	repo     Repository
	exec     func(rs *scenario.RunSpec) (Cell, error)
	validate func(rs *scenario.RunSpec) error
	sem      chan struct{}

	mu      sync.Mutex
	nextID  int
	flights map[string]*flight
	// unsettled keeps, by run ID, the store error that left a finished
	// run's record queued, for WaitRun to report.
	unsettled map[string]error
	stats     Stats
	idle      *sync.Cond
	active    int
}

// New builds a Service over cfg. With a file-backed repository the ID
// sequence resumes after the highest stored run, so restarts never collide.
func New(cfg Config) (*Service, error) {
	if cfg.Repo == nil {
		cfg.Repo = NewMemRepo()
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	s := &Service{
		repo:      cfg.Repo,
		exec:      cfg.Exec,
		sem:       make(chan struct{}, cfg.Workers),
		flights:   make(map[string]*flight),
		unsettled: make(map[string]error),
	}
	if s.exec == nil {
		s.exec = computeCell
		// With the real backend, reject what the harness cannot run (unknown
		// catalog app or tool) at submit time instead of queueing a run that
		// is doomed to fail.
		s.validate = harness.CheckRunScenario
	}
	s.idle = sync.NewCond(&s.mu)
	recs, err := cfg.Repo.ListRuns()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.ID, "r-%06d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		// A run left queued by a dying process will never finish; surface
		// that instead of blocking status waits forever.
		if rec.State == StateQueued {
			rec.State = StateFailed
			rec.Error = "interrupted before completion (service restarted)"
			if err := cfg.Repo.UpdateRun(rec); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// computeCell is the real execution backend: one deterministic harness run,
// reduced to the byte payloads the API serves. The binary trace is always
// captured; the telemetry digest only when the document asked for it.
func computeCell(rs *scenario.RunSpec) (Cell, error) {
	cfg, err := harness.FromRunScenario(rs)
	if err != nil {
		return Cell{}, err
	}
	var trace bytes.Buffer
	cfg.BinTrace = &trace
	res, err := harness.Run(cfg)
	if err != nil {
		return Cell{}, err
	}
	var exp bytes.Buffer
	if err := export.FromResult(res).Write(&exp); err != nil {
		return Cell{}, err
	}
	c := Cell{
		App: cfg.App.Name, Tool: rs.Tool, Setting: rs.Setting,
		Seed: rs.Seed, ScenarioHash: cfg.ScenarioHash,
		Export: exp.Bytes(), Trace: trace.Bytes(),
	}
	if rs.Telemetry {
		var tel bytes.Buffer
		if err := report.Telemetry(&tel, res); err != nil {
			return Cell{}, err
		}
		c.Telemetry = tel.Bytes()
	}
	return c, nil
}

// Submit compiles data as a run scenario and resolves it against the store:
// a stored cell is an immediate cache hit, an identical in-flight compute is
// joined, and only a genuinely new configuration starts a compute. The
// returned record is the submit-time snapshot; poll or wait for completion.
func (s *Service) Submit(data []byte) (RunRecord, error) {
	rs, err := scenario.CompileRun(data)
	if err != nil {
		return RunRecord{}, err
	}
	if s.validate != nil {
		if err := s.validate(rs); err != nil {
			return RunRecord{}, err
		}
	}
	appLabel := rs.AppName
	if rs.App != nil {
		appLabel = rs.App.Spec.Name
	}

	hit := s.repo.CheckCell(rs.ConfigHash) == nil
	s.mu.Lock()
	rec, err := s.admit(rs, appLabel, hit)
	s.mu.Unlock()
	if err != nil || rec.State == StateQueued {
		return rec, err
	}
	// A hit joins no flight, so its record is written outside the lock.
	if err := s.repo.CreateRun(rec); err != nil {
		return RunRecord{}, storeError(err)
	}
	return rec, nil
}

// admit resolves a submit under s.mu. An in-flight compute of the same hash
// wins, and the submit joins it. Otherwise hit, the verdict of the unlocked
// check, is re-checked if it failed: a hit comes back done, for the caller
// to store, and a miss starts a compute. Queued records are created here,
// before runFlight can settle them.
func (s *Service) admit(rs *scenario.RunSpec, appLabel string, hit bool) (RunRecord, error) {
	s.stats.Submitted++
	s.nextID++
	rec := RunRecord{
		ID:         fmt.Sprintf("r-%06d", s.nextID),
		Name:       rs.Name,
		ConfigHash: rs.ConfigHash,
		App:        appLabel,
		Tool:       rs.Tool,
		Setting:    rs.Setting,
		Seed:       rs.Seed,
		State:      StateQueued,
	}
	if fl, ok := s.flights[rs.ConfigHash]; ok {
		s.stats.Coalesced++
		if err := s.repo.CreateRun(rec); err != nil {
			return RunRecord{}, storeError(err)
		}
		fl.recs = append(fl.recs, rec)
		return rec, nil
	}
	if hit || s.repo.CheckCell(rs.ConfigHash) == nil {
		s.stats.CacheHits++
		rec.State = StateDone
		rec.CacheHit = true
		return rec, nil
	}
	// ErrNotFound and ErrCorrupt both fall through to a fresh compute;
	// PutCell replaces a corrupt cell, which is the recovery path.
	if err := s.repo.CreateRun(rec); err != nil {
		return RunRecord{}, storeError(err)
	}
	fl := &flight{done: make(chan struct{}), recs: []RunRecord{rec}}
	s.flights[rs.ConfigHash] = fl
	s.active++
	go s.runFlight(rs, fl)
	return rec, nil
}

// storeError marks err as a repository failure, which the API answers 500.
func storeError(err error) error { return fmt.Errorf("%w: %w", ErrStore, err) }

// runFlight executes one compute and settles every attached run record.
func (s *Service) runFlight(rs *scenario.RunSpec, fl *flight) {
	s.sem <- struct{}{}
	cell, err := s.exec(rs)
	<-s.sem

	s.mu.Lock()
	defer func() {
		delete(s.flights, rs.ConfigHash)
		s.active--
		s.idle.Broadcast()
		s.mu.Unlock()
		close(fl.done)
	}()
	if err == nil {
		cell.ConfigHash = rs.ConfigHash
		err = s.repo.PutCell(cell)
	}
	if err == nil {
		s.stats.Computed++
	} else {
		s.stats.Failures++
	}
	for i, rec := range fl.recs {
		if err != nil {
			rec.State = StateFailed
			rec.Error = err.Error()
		} else {
			rec.State = StateDone
			// The submit that started the flight computed; everyone who
			// coalesced onto it was served from that one compute.
			rec.CacheHit = i > 0
		}
		// A record that fails to settle stays queued with no flight; WaitRun
		// reports it as ErrStore with this cause.
		if uerr := s.repo.UpdateRun(rec); uerr != nil {
			s.unsettled[rec.ID] = uerr
		}
	}
}

// Run returns the current record for id.
func (s *Service) Run(id string) (RunRecord, error) { return s.repo.GetRun(id) }

// WaitRun blocks until id leaves StateQueued and returns the settled record.
// A record still queued once its flight has settled was never updated; that
// is ErrStore, wrapping the store's error when runFlight saw one, not a
// reason to wait longer.
func (s *Service) WaitRun(id string) (RunRecord, error) {
	rec, err := s.repo.GetRun(id)
	if err != nil || rec.State != StateQueued {
		return rec, err
	}
	s.mu.Lock()
	fl := s.flights[rec.ConfigHash]
	s.mu.Unlock()
	if fl != nil {
		<-fl.done
	}
	// Re-read, whether we waited or the flight settled between the read and
	// the lookup.
	if rec, err = s.repo.GetRun(id); err != nil || rec.State != StateQueued {
		return rec, err
	}
	s.mu.Lock()
	cause := s.unsettled[id]
	s.mu.Unlock()
	if cause != nil {
		return rec, storeError(fmt.Errorf("run %s is still queued after its compute settled: %w", id, cause))
	}
	return rec, fmt.Errorf("%w: run %s is still queued after its compute settled", ErrStore, id)
}

// Runs lists every record, sorted by ID.
func (s *Service) Runs() ([]RunRecord, error) { return s.repo.ListRuns() }

// Cell returns the completed cell a settled run resolves to. A queued run is
// ErrNotReady; a failed run reports its failure.
func (s *Service) Cell(id string) (Cell, error) {
	rec, err := s.repo.GetRun(id)
	if err != nil {
		return Cell{}, err
	}
	switch rec.State {
	case StateQueued:
		return Cell{}, fmt.Errorf("%w: run %s is still queued", ErrNotReady, id)
	case StateFailed:
		return Cell{}, fmt.Errorf("%w: run %s: %s", ErrRunFailed, id, rec.Error)
	}
	if c, err := s.repo.GetCell(rec.ConfigHash); err == nil {
		return c, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repo.GetCell(rec.ConfigHash)
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Drain blocks until no flights are in progress (test and shutdown aid).
func (s *Service) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.active > 0 {
		s.idle.Wait()
	}
}

// Close drains in-flight computes and releases the store.
func (s *Service) Close() error {
	s.Drain()
	return s.repo.Close()
}
