package export

import (
	"fmt"

	"taopt/internal/obs"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
)

// builder assembles a Run from a run's binary-trace records: the one place
// the document's sections and nil-versus-empty rules are decided. FromResult
// (live result), ReadBin (decoded stream) and Replay (re-driven replayable
// stream) all feed it. Slice and pointer fields are materialised only when
// their records (or header flags) appear, so a record sequence rebuilds the
// byte-identical JSON of the run that wrote it.
type builder struct {
	run *Run
	// events holds each instance's events until its summary record claims
	// them. Consecutive events of one instance extend cur without a map
	// lookup; a switch of instance stores cur back.
	events map[int][]Event
	curID  int
	cur    []Event
	hasCur bool

	ended bool
	err   error
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

func (b *builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%w: "+format, append([]any{bin.ErrCorrupt}, args...)...)
	}
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
func (b *builder) Sample(s bin.Sample) {
	b.run.Timeline = append(b.run.Timeline, Point{
		WallNS: s.WallNS, MachineNS: s.MachineNS,
		Covered: s.Covered, Crashes: s.Crashes, AJS: s.AJS,
	})
}

// Decision implements bin.Sink.
func (b *builder) Decision(d obs.Decision) {
	if b.run.Telemetry == nil {
		b.fail("decision record without telemetry header flag")
		return
	}
	b.run.Telemetry.Decisions = append(b.run.Telemetry.Decisions, d)
}

// Instance implements bin.Sink.
func (b *builder) Instance(s bin.InstanceSummary) {
	b.storeCur()
	inst := Instance{
		ID:          s.ID,
		AllocatedNS: s.AllocatedNS,
		ReleasedNS:  s.ReleasedNS,
		Coverage:    s.Coverage,
		Failed:      s.Failed,
		Events:      b.events[s.ID],
	}
	for _, cr := range s.Crashes {
		inst.Crashes = append(inst.Crashes, Crash{
			Signature: cr.Signature, AtNS: cr.AtNS, Frames: cr.Frames,
		})
	}
	b.run.Instances = append(b.run.Instances, inst)
}

// Subspace implements bin.Sink.
func (b *builder) Subspace(s bin.Subspace) {
	b.run.Subspaces = append(b.run.Subspaces, Subspace{
		ID: s.ID, Entry: s.Entry, Members: s.Members,
		Owner: s.Owner, FoundNS: s.FoundNS,
	})
}

// Screen implements bin.Sink.
func (b *builder) Screen(s bin.Screen) {
	b.run.Screens = append(b.run.Screens, Screen{
		Signature: s.Sig, Activity: s.Activity, Nodes: s.Nodes,
	})
}

// Transport implements bin.Sink.
func (b *builder) Transport(t bin.Transport) {
	et := &Transport{
		Events: t.Events, Delivered: t.Delivered, Commands: t.Commands,
		CommandFailures: t.CommandFailures, Dropped: t.Dropped,
		Delayed: t.Delayed, Deaths: t.Deaths, Hangs: t.Hangs,
		AllocFailures: t.AllocFailures, LostCommands: t.LostCommands,
		FailedInstances: t.FailedInstances, OrphansPending: t.OrphansPending,
	}
	if t.HasMix {
		et.CommandMix = &CommandMix{
			Allocate: t.Mix[0], Deallocate: t.Mix[1],
			BlockWidget: t.Mix[2], BlockMember: t.Mix[3],
			Kill: t.Mix[4], Hang: t.Mix[5],
		}
	}
	b.run.Transport = et
}

// Metric implements bin.Sink.
func (b *builder) Metric(m obs.Metric) {
	if b.run.Telemetry == nil {
		b.fail("metric record without telemetry header flag")
		return
	}
	b.run.Telemetry.Metrics = append(b.run.Telemetry.Metrics, m)
}

// End implements bin.Sink.
func (b *builder) End(e bin.End) {
	b.run.WallUsedNS = e.WallNS
	b.run.MachineUsedNS = e.MachineNS
	b.run.Coverage = e.Coverage
	b.run.UniqueCrashes = e.UniqueCrashes
	b.ended = true
}

// record dispatches one decoded stream record, rejecting what a well-formed
// stream never holds; it returns the first violation seen.
func (b *builder) record(rec bin.Record) error {
	if b.ended {
		b.fail("%v record after end", rec.Kind)
		return b.err
	}
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
	case bin.KindReplay, bin.KindTree, bin.KindDelivered, bin.KindCommand, bin.KindFate,
		bin.KindReply, bin.KindLease, bin.KindTick, bin.KindAccounting:
		// Protocol records are Replay's input; the run they describe is
		// already in the other records.
	case bin.KindHeader, bin.KindStrDef, bin.KindSigDef:
		// The Reader consumes header and interning records internally;
		// one surfacing from Next means the stream (or Reader) is broken.
		b.fail("%v record surfaced mid-stream", rec.Kind)
	default:
		b.fail("unexpected %v record", rec.Kind)
	}
	return b.err
}

// finish returns the assembled run, or the first violation seen.
func (b *builder) finish() (*Run, error) {
	if b.err == nil && !b.ended {
		b.fail("stream ends without end record")
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.run, nil
}
