package export

import (
	"taopt/internal/obs"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
)

// builder assembles a Run from a run's binary-trace records: the one place
// the document's sections and nil-versus-empty rules are decided. FromResult
// (live result), ReadBin (decoded stream) and Replay (re-driven replayable
// stream) all feed it. Slice and pointer fields are materialised only when
// their records (or header flags) appear, so a record sequence rebuilds the
// byte-identical JSON of the run that wrote it. The builder trusts its
// input's framing, which bin.Reader enforces: every event belongs to one
// instance summary, and telemetry and transport records come only with
// their header flags.
type builder struct {
	run *Run
	// events holds each instance's events until its summary record claims
	// them. Consecutive events of one instance extend cur without a map
	// lookup; a switch of instance stores cur back.
	events map[int][]Event
	curID  int
	cur    []Event
	hasCur bool
}

var _ bin.Sink = (*builder)(nil)

func newBuilder(h bin.Header) *builder {
	b := &builder{
		run: &Run{
			Version:      h.ExportVersion,
			App:          h.App,
			Tool:         h.Tool,
			Setting:      h.Setting,
			Seed:         h.Seed,
			ScenarioHash: h.ScenarioHash,
		},
		events: make(map[int][]Event),
	}
	if h.Telemetry {
		b.run.Telemetry = &Telemetry{}
	}
	return b
}

// storeCur hands the pending run of events back to the per-instance map.
func (b *builder) storeCur() {
	if b.hasCur {
		b.events[b.curID] = b.cur
	}
}

// Event implements bin.Sink.
func (b *builder) Event(ev trace.Event) {
	if !b.hasCur || ev.Instance != b.curID {
		b.storeCur()
		b.curID, b.cur, b.hasCur = ev.Instance, b.events[ev.Instance], true
	}
	b.cur = append(b.cur, Event{
		AtNS:     int64(ev.At),
		Kind:     ev.Action.Kind.String(),
		Widget:   string(ev.Action.Widget),
		From:     uint64(ev.From),
		To:       uint64(ev.To),
		Activity: ev.Activity,
		Crashed:  ev.Crashed,
		Enforced: ev.Enforced,
	})
}

// Sample implements bin.Sink.
func (b *builder) Sample(s bin.Sample) { b.run.Timeline = append(b.run.Timeline, s) }

// Decision implements bin.Sink.
func (b *builder) Decision(d obs.Decision) {
	b.run.Telemetry.Decisions = append(b.run.Telemetry.Decisions, d)
}

// Instance implements bin.Sink.
func (b *builder) Instance(s bin.InstanceSummary) {
	b.storeCur()
	b.run.Instances = append(b.run.Instances, Instance{InstanceSummary: s, Events: b.events[s.ID]})
}

// Subspace implements bin.Sink.
func (b *builder) Subspace(s bin.Subspace) { b.run.Subspaces = append(b.run.Subspaces, s) }

// Screen implements bin.Sink.
func (b *builder) Screen(s bin.Screen) { b.run.Screens = append(b.run.Screens, s) }

// Transport implements bin.Sink.
func (b *builder) Transport(t bin.Transport) { b.run.Transport = &t }

// Metric implements bin.Sink.
func (b *builder) Metric(m obs.Metric) {
	b.run.Telemetry.Metrics = append(b.run.Telemetry.Metrics, m)
}

// End implements bin.Sink.
func (b *builder) End(e bin.End) { b.run.End = e }

// record dispatches one decoded stream record. The Sink methods take the
// payload by value, so the builder keeps nothing of the Reader's record.
func (b *builder) record(rec *bin.Record) {
	switch rec.Kind {
	case bin.KindEvent:
		b.Event(rec.Event)
	case bin.KindSample:
		b.Sample(rec.Sample)
	case bin.KindDecision:
		b.Decision(rec.Decision)
	case bin.KindInstance:
		b.Instance(rec.Summary)
	case bin.KindSubspace:
		b.Subspace(rec.Subspace)
	case bin.KindScreen:
		b.Screen(rec.Screen)
	case bin.KindTransport:
		b.Transport(rec.Transport)
	case bin.KindMetric:
		b.Metric(rec.Metric)
	case bin.KindEnd:
		b.End(rec.End)
	case bin.KindHeader, bin.KindStrDef, bin.KindSigDef,
		bin.KindReplay, bin.KindTree, bin.KindDelivered, bin.KindCommand, bin.KindFate,
		bin.KindReply, bin.KindLease, bin.KindTick, bin.KindAccounting:
		// The Reader consumes header and interning records itself.
		// Protocol records are Replay's input; the run they describe is
		// already in the other records.
	}
}
