// Package obs is the virtual-time telemetry layer: a structured decision
// log, a dependency-free metrics registry, and exporters (JSONL, Chrome
// trace-event JSON) for offline analysis of a campaign run.
//
// The paper's deployment practice is "log everything for offline analysis"
// (Section 8); every calibration decision of DESIGN.md §5 was originally
// tuned blind because the coordinator left no record of *why* it accepted a
// candidate, rejected a roaming window, declared an instance hung, or backed
// an allocation off. This package gives those branches a durable, typed
// trail.
//
// Determinism: every event is timestamped on the simulation clock and
// emitted from the single-threaded run loop, so the decision log of a seeded
// run is byte-reproducible — the golden test pins it. Telemetry is
// off-by-default; all emit methods are safe (and free) on a nil receiver, so
// an uninstrumented run pays one nil check per *decision branch*, never per
// trace event, preserving the fault-free bit-identical guarantee.
package obs

import (
	"encoding/json"
	"io"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

// Decision kinds: the event taxonomy of the coordinator's and analyzer's
// consequential branches (DESIGN.md §9 documents each).
const (
	// KindAnalyzed: the analyzer ran Algorithm 1 over an instance's window and
	// it produced a scored split (reason "pass" when it clears ScoreMax,
	// "score-above-max" otherwise).
	KindAnalyzed = "analyzed"
	// KindCandidate: the coordinator received a candidate subspace.
	KindCandidate = "candidate"
	// KindReject: a candidate failed one of the acceptance guards; Reason
	// names the guard (warm-up, too-broad, trimmed-away, entry-taken,
	// foreign-extension, foreign-enclosed).
	KindReject = "reject"
	// KindPending: a short-l_min candidate was stored (or refreshed) to wait
	// for a confirming report.
	KindPending = "pending"
	// KindConfirmed: two reports matched; Reason says how ("second-instance"
	// or "sustained"); an accept event follows.
	KindConfirmed = "confirmed"
	// KindAccept: a subspace was accepted and dedicated to its owner.
	KindAccept = "accept"
	// KindExtend: the owner's re-observation extended an accepted subspace.
	KindExtend = "extend"
	// KindMerge: a deeper region reachable only through one subspace was
	// folded into it.
	KindMerge = "merge"
	// KindOrphan: a subspace lost its owner (Reason "dropped" under
	// DropOrphans, "queued" otherwise).
	KindOrphan = "orphan"
	// KindRededicate: an orphaned subspace was re-assigned to a new instance.
	KindRededicate = "rededicate"
	// KindAllocate: an instance was allocated.
	KindAllocate = "allocate"
	// KindAllocDefer: the farm was busy; the want was deferred with the
	// recorded backoff.
	KindAllocDefer = "alloc-defer"
	// KindAllocDisable: a permanent allocation error latched; no further
	// allocations will be attempted.
	KindAllocDisable = "alloc-disable"
	// KindStagnant: an instance was de-allocated for discovering no new
	// screen within the stagnation window.
	KindStagnant = "stagnant"
	// KindDead: a tracked instance vanished from the farm without a release.
	KindDead = "dead"
	// KindHung: an instance missed the heartbeat window and was released.
	KindHung = "hung"
	// KindReleaseError: the farm rejected a de-allocation (unknown/double).
	KindReleaseError = "release-error"
	// KindCmdRetry: a block command failed retryably (lost on the wire) and
	// was retransmitted; Reason names the command kind.
	KindCmdRetry = "cmd-retry"
	// KindCmdDrop: a block command exhausted its retransmit budget and was
	// abandoned; the entrypoint stays unblocked until re-learned.
	KindCmdDrop = "cmd-drop"
)

// Decision is one structured decision-log entry. The zero value of optional
// fields is omitted from the serialised form; Instance and Sub are always
// present (IDs start at 0/1, so -1 marks "not applicable").
type Decision struct {
	// AtNS is the virtual-clock timestamp.
	AtNS int64 `json:"at_ns"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Instance is the testing instance the decision concerns (-1 if none).
	Instance int `json:"inst"`
	// Sub is the subspace ID the decision concerns (-1 if none).
	Sub int `json:"sub"`
	// Entry is the candidate/subspace entrypoint signature.
	Entry uint64 `json:"entry,omitempty"`
	// Members is the candidate/subspace member-screen count.
	Members int `json:"members,omitempty"`
	// Score, Overlap and Purity are Algorithm 1's partition score and its
	// components at the chosen split.
	Score   float64 `json:"score,omitempty"`
	Overlap float64 `json:"overlap,omitempty"`
	Purity  float64 `json:"purity,omitempty"`
	// Reason qualifies the kind (guard name, confirmation mode, ...).
	Reason string `json:"reason,omitempty"`
	// BackoffNS is the allocation retry backoff in force (alloc-defer).
	BackoffNS int64 `json:"backoff_ns,omitempty"`
	// IdleNS is how long the instance had been idle/stagnant (stagnant,
	// hung).
	IdleNS int64 `json:"idle_ns,omitempty"`
}

// Log is an append-only decision log. All methods are safe on a nil *Log
// and do nothing, so call sites need no telemetry branches.
type Log struct {
	decisions []Decision
	tee       func(Decision)
}

// Emit appends one decision. No-op on a nil log.
func (l *Log) Emit(d Decision) {
	if l == nil {
		return
	}
	l.decisions = append(l.decisions, d)
	if l.tee != nil {
		l.tee(d)
	}
}

// Tee registers fn to observe every subsequently emitted decision, in
// emission order — the streaming hook the binary trace writer hangs off so
// decisions leave the process as they happen instead of at run end. One tee
// at a time; no-op on a nil log.
func (l *Log) Tee(fn func(Decision)) {
	if l == nil {
		return
	}
	l.tee = fn
}

// Decisions returns the recorded decisions in emission order. The returned
// slice is the log's backing store; callers must not mutate it. A nil log
// returns nil.
func (l *Log) Decisions() []Decision {
	if l == nil {
		return nil
	}
	return l.decisions
}

// Len returns the number of recorded decisions (0 for a nil log).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.decisions)
}

// WriteJSONL serialises the log with the package-level WriteJSONL.
func (l *Log) WriteJSONL(w io.Writer) error { return WriteJSONL(w, l.Decisions()) }

// WriteJSONL serialises decisions as one compact JSON object per line — the
// decision view tracetool render writes and the CI stability step diffs.
// The output is byte-deterministic: field order is fixed by the struct and
// emission order by the virtual clock.
func WriteJSONL(w io.Writer, decisions []Decision) error {
	enc := json.NewEncoder(w)
	for _, d := range decisions {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// CountByKind tallies decisions per kind.
func (l *Log) CountByKind() map[string]int {
	out := make(map[string]int)
	for _, d := range l.Decisions() {
		out[d.Kind]++
	}
	return out
}

// CountByReason tallies decisions of one kind per reason.
func (l *Log) CountByReason(kind string) map[string]int {
	out := make(map[string]int)
	for _, d := range l.Decisions() {
		if d.Kind == kind {
			out[d.Reason]++
		}
	}
	return out
}

// At is a convenience for building decisions from sim durations.
func At(t sim.Duration) int64 { return int64(t) }

// Sig converts a screen signature for the log's wire form.
func Sig(s ui.Signature) uint64 { return uint64(s) }

// Telemetry bundles one run's decision log and metrics registry. A nil
// *Telemetry (telemetry disabled) yields nil components, and every component
// method is nil-safe, so the harness threads one pointer and never branches.
type Telemetry struct {
	Decisions *Log
	Metrics   *Registry
}

// NewTelemetry returns an empty telemetry sink.
func NewTelemetry() *Telemetry {
	return &Telemetry{Decisions: &Log{}, Metrics: NewRegistry()}
}

// DecisionLog returns the decision log (nil when telemetry is disabled).
func (t *Telemetry) DecisionLog() *Log {
	if t == nil {
		return nil
	}
	return t.Decisions
}

// Registry returns the metrics registry (nil when telemetry is disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}
