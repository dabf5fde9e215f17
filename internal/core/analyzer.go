package core

import (
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Subspace is an accepted loosely coupled UI subspace.
type Subspace struct {
	ID int
	// Entry is the entrypoint screen p_out.
	Entry ui.Signature
	// Members are the abstract screens of the subspace.
	Members map[ui.Signature]bool
	// InitialMembers is len(Members) at acceptance, before any merges.
	InitialMembers int
	// Owner is the testing instance the subspace is dedicated to.
	Owner int
	// FoundAt is the virtual time of acceptance.
	FoundAt sim.Duration
}

// Candidate is a subspace reported by Algorithm 1 on one instance's trace,
// before the coordinator's acceptance rules run.
type Candidate struct {
	Instance int
	Entry    ui.Signature
	Members  []ui.Signature
	Score    float64
	// Overlap and Purity are the score's components at the chosen split
	// (telemetry: the decision log records them with every candidate).
	Overlap float64
	Purity  float64
	At      sim.Duration
}

// AnalyzerConfig tunes the trace analyzer. DefaultAnalyzerConfig fills every
// threshold; a zero field is not replaced by a default.
type AnalyzerConfig struct {
	// LMin is Algorithm 1's exploration threshold (l_min^long or l_min^short
	// depending on the coordinator mode).
	LMin sim.Duration
	// AnalyzeEvery bounds cost: Algorithm 1 runs every this many
	// transitions per instance.
	AnalyzeEvery int
	// WindowCap bounds the analysed trace suffix length.
	WindowCap int
	// SimilarityThreshold is CountIn's tree-similarity match threshold.
	SimilarityThreshold float64
	// ScoreMax is the acceptance threshold on Algorithm 1's partition score.
	// The algorithm's own bound (score < 1) admits "roaming" windows whose
	// suffix mixes functionalities but still beats the initialised minimum;
	// a genuinely settled window — no overlap with the prefix, suffix as
	// pure as its last-l_min sample — scores well below 0.5.
	ScoreMax float64
	// Obs, when non-nil, receives one decision-log event per Algorithm 1 run
	// that produced a scored split (telemetry; nil costs nothing).
	Obs *obs.Log
	// Clock, when non-nil, stamps those decision-log events (the coordinator
	// wires the sim clock in). Trace events carry their transition's
	// *completion* time, which runs ahead of the scheduler; stamping
	// decisions with the clock keeps the whole decision log monotone.
	Clock func() sim.Duration
}

// DefaultAnalyzerConfig returns the thresholds used throughout the
// evaluation.
func DefaultAnalyzerConfig(lMin sim.Duration) AnalyzerConfig {
	return AnalyzerConfig{
		LMin:                lMin,
		AnalyzeEvery:        25,
		WindowCap:           450,
		SimilarityThreshold: 0.85,
		ScoreMax:            0.5,
	}
}

// Analyzer consumes UI transition events from all instances (via the Toller
// drivers) and emits subspace candidates. It is the "on-the-fly trace
// analyzer" box of Figure 1(b).
type Analyzer struct {
	cfg AnalyzerConfig

	perInstance map[int]*instanceTrace
	// intern is shared by every instance's SpaceTracker: signatures are
	// interned once and similarity verdicts memoised once, fleet-trace-wide.
	intern *internTable
}

// instanceTrace is the whole of an instance's analysis state. Keeping every
// per-instance piece in the one map entry means ResetInstance cannot forget
// one of them: deleting the entry drops the tracker and the report cadence
// together.
type instanceTrace struct {
	tracker     *SpaceTracker
	sinceReport int
}

// NewAnalyzer returns an analyzer reading exemplar hierarchies from book. It
// uses cfg as given; start from DefaultAnalyzerConfig.
func NewAnalyzer(cfg AnalyzerConfig, book *trace.Book) *Analyzer {
	ts := &treeSimilarity{book: book, threshold: cfg.SimilarityThreshold}
	return &Analyzer{
		cfg:         cfg,
		perInstance: make(map[int]*instanceTrace),
		intern:      newInternTable(ts.judge),
	}
}

// treeSimilarity judges a pair of interned signatures by the tree similarity
// of the book's exemplars against the match threshold. Each signature's
// shape is computed once, on its first comparison, and kept by intern id,
// so a judgement is a merge of two sorted path vectors.
type treeSimilarity struct {
	book      *trace.Book
	threshold float64
	shapes    []*ui.Shape
}

func (m *treeSimilarity) judge(t *internTable, a, b int32) bool {
	return ui.ShapeSimilarity(m.shape(t, a), m.shape(t, b)) >= m.threshold
}

// shape returns id's exemplar shape, nil while the book holds no exemplar
// for it.
func (m *treeSimilarity) shape(t *internTable, id int32) *ui.Shape {
	if int(id) >= len(m.shapes) {
		m.shapes = append(m.shapes, make([]*ui.Shape, t.len()-len(m.shapes))...)
	}
	if m.shapes[id] == nil {
		m.shapes[id] = ui.ShapeOf(m.book.Lookup(t.sig(id)))
	}
	return m.shapes[id]
}

// Observe folds one transition event into the instance's trace and, every
// AnalyzeEvery events, runs Algorithm 1 over the instance's window. It
// returns a candidate and true when the analysis identifies a loosely
// coupled subspace.
//
// Enforced (TaOPT-injected) transitions are excluded: the analyzer must see
// the tool's behaviour, not the coordinator's.
func (a *Analyzer) Observe(ev trace.Event) (Candidate, bool) {
	if ev.Enforced {
		return Candidate{}, false
	}
	it, ok := a.perInstance[ev.Instance]
	if !ok {
		it = &instanceTrace{tracker: newSpaceTrackerShared(a.intern, a.cfg.LMin)}
		a.perInstance[ev.Instance] = it
	}
	it.tracker.Push(ScreenVisit{Sig: ev.To, At: ev.At})
	it.tracker.DropTo(a.cfg.WindowCap)
	it.sinceReport++
	if it.sinceReport < a.cfg.AnalyzeEvery {
		return Candidate{}, false
	}
	it.sinceReport = 0

	res, ok := it.tracker.Analyze()
	if !ok {
		return Candidate{}, false
	}
	at := ev.At
	if a.cfg.Clock != nil {
		at = a.cfg.Clock()
	}
	if res.Score > a.cfg.ScoreMax {
		a.cfg.Obs.Emit(obs.Decision{
			AtNS: obs.At(at), Kind: obs.KindAnalyzed, Instance: ev.Instance, Sub: -1,
			Entry: obs.Sig(res.Entry), Members: len(res.Members),
			Score: res.Score, Overlap: res.OverlapScore, Purity: res.PurityScore,
			Reason: "score-above-max",
		})
		return Candidate{}, false
	}
	a.cfg.Obs.Emit(obs.Decision{
		AtNS: obs.At(at), Kind: obs.KindAnalyzed, Instance: ev.Instance, Sub: -1,
		Entry: obs.Sig(res.Entry), Members: len(res.Members),
		Score: res.Score, Overlap: res.OverlapScore, Purity: res.PurityScore,
		Reason: "pass",
	})
	return Candidate{
		Instance: ev.Instance,
		Entry:    res.Entry,
		Members:  res.Members,
		Score:    res.Score,
		Overlap:  res.OverlapScore,
		Purity:   res.PurityScore,
		At:       ev.At,
	}, true
}

// ResetInstance clears an instance's analysis window. The coordinator calls
// it when the instance's current exploration segment was just accepted as a
// subspace (so the next identification starts fresh) and when an instance is
// de-allocated. The map entry itself is dropped — retired instance ids must
// not pin their window, tracker or cadence counter for the campaign's
// remaining lifetime.
func (a *Analyzer) ResetInstance(id int) {
	delete(a.perInstance, id)
}
