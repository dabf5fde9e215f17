// Replay: re-derive a run's export from its replayable binary trace.
//
// A replayable trace (harness.RunConfig.Replayable, taopt -replayable) is an
// ordinary .taoptb stream plus the protocol records of internal/bus/wire:
// post-fault deliveries, every Command/Reply exchange, and the boundary
// effects (screen trees, leases, fates, ticks, the run-end transport
// accounting). With the ground events, samples and summaries the stream
// carries anyway, those records are sufficient to re-drive the coordinator
// — and only the coordinator — without the farm, the testing tools or the
// fault plan: tool decisions are replayed from the recorded events, never
// re-run.
//
// Replay is strict. The coordinator's sends are matched record by record
// against the recorded coordinator exchanges; any divergence (a command the
// stream does not carry next, a recorded coordinator command the replayed
// coordinator does not send, a count that does not reconcile with the
// recorded totals) is an error, not a best-effort continuation. A
// replayable trace either reproduces its run byte-for-byte or it fails
// loudly.
package export

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"taopt/internal/bus"
	"taopt/internal/bus/wire"
	"taopt/internal/core"
	"taopt/internal/harness"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

var (
	// ErrNotReplayable marks a trace replay cannot re-drive: a plain
	// stream, or a run whose coordinator config was overridden.
	ErrNotReplayable = errors.New("export: replay: not a replayable trace (record the run with -replayable)")
	// ErrDiverged marks a replayable trace whose records the replayed
	// coordinator, or the recorded totals, do not agree with.
	ErrDiverged = errors.New("export: replay diverged")
)

// Replay re-drives the run recorded in rd and returns its export —
// byte-identical to the live run's — plus the re-derived coordinator
// decision log (empty for baseline settings). The telemetry block is never
// emitted: the metrics registry samples live harness state the trace does
// not carry, so a telemetry-enabled run replays to its telemetry-free
// export. Every error wraps ErrNotReplayable, ErrDiverged or
// bin.ErrCorrupt.
func Replay(rd io.Reader) (*Run, *obs.Log, error) {
	br, err := bin.NewReader(rd)
	if err != nil {
		return nil, nil, err
	}
	h := br.Header()
	if h.ExportVersion != FormatVersion {
		return nil, nil, fmt.Errorf("%w: format version %d (want %d)", ErrNotReplayable, h.ExportVersion, FormatVersion)
	}
	first, err := br.Next()
	switch {
	case err != nil:
		return nil, nil, err
	case first.Kind != bin.KindReplay:
		return nil, nil, ErrNotReplayable
	case first.Replay.CoreOverride:
		return nil, nil, fmt.Errorf("%w: the run overrode the coordinator config, which is not recorded", ErrNotReplayable)
	}
	h.Telemetry = false
	e := &replayer{
		rd:        br,
		cfg:       *first.Replay,
		faults:    h.Faults,
		book:      trace.NewBook(),
		out:       newBuilder(h),
		leased:    make(map[int]bool),
		summaries: make(map[int]bin.InstanceSummary),
		decisions: &obs.Log{},
	}
	// A setting the harness does not know replays without a coordinator.
	if s, err := harness.ParseSetting(h.Setting); err == nil {
		if mode, ok := s.Mode(); ok {
			e.buildCoordinator(mode)
		}
	}
	if e.coord != nil {
		e.coord.Start()
	}
	e.drive()
	if e.err == nil {
		e.reconcile()
	}
	if e.err != nil {
		return nil, nil, e.err
	}
	return e.export(), e.decisions, nil
}

// replayer re-drives one recorded run. It implements core.Env and
// bus.Sender against the record cursor: where the live coordinator talked
// to the harness and the transport, the replayed one talks to the stream.
type replayer struct {
	rd     *bin.Reader
	pos    int
	now    sim.Duration
	cfg    bin.ReplayConfig
	faults bool

	// active mirrors the farm's active-allocation set. Instance IDs are
	// allocated monotonically and device.Farm.ActiveIDs lists them in
	// ascending order, so a sorted ID slice reproduces ActiveInstances
	// exactly.
	active []int

	book      *trace.Book
	coord     *core.Coordinator
	decisions *obs.Log

	// out receives the recorded events and samples as they are consumed;
	// export closes it with the re-derived tail.
	out       *builder
	leases    []int
	leased    map[int]bool
	summaries map[int]bin.InstanceSummary
	acct      *bin.Transport
	end       bin.End
	grounds   int
	delivered int

	err error
}

func (e *replayer) buildCoordinator(mode core.Mode) {
	cfg := core.DefaultConfig(mode)
	cfg.Obs = e.decisions
	e.coord = core.NewCoordinator(cfg, e, e, e.book)
}

func (e *replayer) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("%w: record %d: %s", ErrDiverged, e.pos, fmt.Sprintf(format, args...))
	}
}

// next returns the next record, or false at the end of the stream or after
// a failure. It skips decision records, which the replayed coordinator
// re-derives; a protocol record advances the replay clock. The record is
// the Reader's and valid until the next call: what the replay keeps of it
// is copied out.
func (e *replayer) next() (*bin.Record, bool) {
	for e.err == nil {
		rec, err := e.rd.Next()
		if err != nil {
			if err != io.EOF {
				e.err = err
			}
			break
		}
		e.pos++
		if rec.Kind == bin.KindDecision {
			continue
		}
		if rec.Kind.Protocol() {
			e.now = rec.At
		}
		return rec, true
	}
	return nil, false
}

// diverged is the reply a send gets once the replay has failed.
var diverged = bus.Reply{Err: ErrDiverged}

// --- core.Env ------------------------------------------------------------

func (e *replayer) Now() sim.Duration { return e.now }

func (e *replayer) MaxInstances() int { return e.cfg.MaxDevices }

func (e *replayer) ActiveInstances() []int {
	return append([]int(nil), e.active...)
}

// --- record consumption --------------------------------------------------

// Send implements bus.Sender for the replayed coordinator: it matches one
// coordinator-originated command against the next recorded exchange and
// returns the recorded reply. The live run's decision sequence is
// deterministic, so the replayed coordinator must ask for exactly what the
// stream carries next — anything else is divergence.
func (e *replayer) Send(cmd bus.Command) bus.Reply {
	rec, ok := e.next()
	switch {
	case !ok:
		e.fail("coordinator sent %s but the stream has no records left", cmd.Kind)
	case rec.Kind != bin.KindCommand:
		e.fail("coordinator sent %s but the stream carries a %v record", cmd.Kind, rec.Kind)
	case wire.DecodeCommand(*rec.Command) != cmd || !rec.Command.Coord:
		e.fail("coordinator sent %+v but the stream recorded %+v", cmd, *rec.Command)
	default:
		return e.consumeExchange(cmd)
	}
	return diverged
}

// consumeExchange reads the effect records of one in-flight command (screen
// trees, leases and their launch events) up to its reply, then
// applies the exchange to the mirrored farm state.
func (e *replayer) consumeExchange(cmd bus.Command) bus.Reply {
	for {
		rec, ok := e.next()
		if !ok {
			e.fail("exchange for %s has no reply", cmd.Kind)
			return diverged
		}
		//lint:allow exhaustive "only trees, leases, launch events and the reply are legal inside an exchange; the default fails the replay as divergence"
		switch rec.Kind {
		case bin.KindTree:
			e.observe(rec)
		case bin.KindLease:
			e.lease(rec.Lease)
		case bin.KindEvent:
			e.grounds++
			e.out.Event(rec.Event)
		case bin.KindReply:
			rep := wire.DecodeReply(*rec.Reply)
			e.apply(cmd, rep)
			return rep
		default:
			e.fail("unexpected %v record inside a %s exchange", rec.Kind, cmd.Kind)
			return diverged
		}
	}
}

// apply mirrors an exchange's effect on the farm's active set.
func (e *replayer) apply(cmd bus.Command, rep bus.Reply) {
	switch cmd.Kind {
	case bus.Allocate:
		if rep.Err == nil {
			e.addActive(rep.Instance)
		}
	case bus.Deallocate:
		if rep.Err == nil {
			e.removeActive(cmd.Instance)
		}
	case bus.BlockWidget, bus.BlockMember, bus.Kill, bus.Hang:
		// Blocks steer tools and fates arrive as fate records; neither
		// changes the mirrored active set here.
	}
}

func (e *replayer) addActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		return
	}
	e.active = append(e.active, 0)
	copy(e.active[i+1:], e.active[i:])
	e.active[i] = id
}

func (e *replayer) removeActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		e.active = append(e.active[:i], e.active[i+1:]...)
	}
}

func (e *replayer) observe(rec *bin.Record) {
	tree := rec.Tree
	sig := tree.Abstract()
	if uint64(sig) != rec.Screen.Sig {
		e.fail("screen tree hashes to %v, recorded as %v (codec or abstraction drift)", sig, ui.Signature(rec.Screen.Sig))
	}
	e.book.Observe(sig, func() *ui.Screen { return tree })
}

func (e *replayer) lease(id int) {
	if e.leased[id] {
		e.fail("instance %d is leased twice", id)
		return
	}
	e.leased[id] = true
	e.leases = append(e.leases, id)
}

// drive consumes the top-level record stream: ground events and samples
// feed the run builder, deliveries feed the coordinator, runner-sent
// exchanges and fate injections update the mirrored farm state. A
// coordinator-sent exchange is consumed only by the replayed coordinator's
// own send; meeting one here means the replay diverged.
func (e *replayer) drive() {
	for {
		rec, ok := e.next()
		if !ok {
			return
		}
		switch rec.Kind {
		case bin.KindTree:
			e.observe(rec)
		case bin.KindEvent:
			e.grounds++
			e.out.Event(rec.Event)
		case bin.KindDelivered:
			e.delivered++
			if e.coord != nil {
				e.coord.OnTransition(rec.Event)
			}
		case bin.KindCommand:
			if rec.Command.Coord {
				e.fail("the stream records a coordinator %s the replayed coordinator did not send", bus.CommandKind(rec.Command.Kind))
				break
			}
			// A runner-sent exchange: a baseline strategy's allocation, an
			// end-of-run deallocation, or a guard-rejected request.
			e.consumeExchange(wire.DecodeCommand(*rec.Command))
		case bin.KindFate:
			// An injected Kill removes the instance from the farm; a Hang
			// leaves it allocated (and billed) in place.
			if cmd := wire.DecodeCommand(*rec.Command); cmd.Kind == bus.Kill {
				e.removeActive(cmd.Instance)
			}
		case bin.KindLease:
			e.lease(rec.Lease)
		case bin.KindTick:
			if e.coord != nil {
				e.coord.Tick(rec.At)
			}
		case bin.KindSample:
			e.out.Sample(rec.Sample)
		case bin.KindInstance:
			e.summaries[rec.Summary.ID] = rec.Summary
		case bin.KindAccounting:
			acct := rec.Transport
			e.acct = &acct
		case bin.KindEnd:
			e.end = rec.End
		case bin.KindDecision, bin.KindSubspace, bin.KindScreen, bin.KindTransport, bin.KindMetric,
			bin.KindHeader, bin.KindStrDef, bin.KindSigDef, bin.KindReplay:
			// Re-derived by the replay (or, for metrics, not replayed);
			// next already skips decisions. The Reader consumes header and
			// interning records itself, and Replay the replay record.
		case bin.KindReply:
			e.fail("reply record outside its exchange")
		}
	}
}

// reconcile cross-checks the re-driven state against the recorded totals:
// the record counts must reconcile with the transport accounting, the
// replayed coordinator must land in the recorded end state, and every lease
// must have an end-of-run summary (the Reader rejects a second one).
func (e *replayer) reconcile() {
	a := e.acct
	switch {
	case a == nil:
		e.fail("stream ends without its accounting record")
		return
	// Every ground event but the launches is a publish the transport
	// counted — except delayed events the run ended before re-delivering,
	// which were recorded at emission but never credited. Allow exactly
	// that slack.
	case e.grounds-len(e.leases) < a.Events || e.grounds-len(e.leases) > a.Events+a.Delayed:
		e.fail("%d ground events for %d leases but the run published %d (delayed %d)", e.grounds, len(e.leases), a.Events, a.Delayed)
	case e.delivered != a.Delivered:
		e.fail("%d delivered records but the run delivered %d", e.delivered, a.Delivered)
	case e.coord != nil && e.coord.OrphanCount() != a.OrphansPending:
		e.fail("coordinator ends with %d pending orphans, run recorded %d", e.coord.OrphanCount(), a.OrphansPending)
	case len(e.summaries) != len(e.leases):
		e.fail("%d end-of-run summaries for %d leases", len(e.summaries), len(e.leases))
	}
	for _, id := range e.leases {
		if _, ok := e.summaries[id]; !ok {
			e.fail("instance %d has a lease but no end-of-run summary", id)
		}
	}
}

// export closes the run builder with the re-derived tail, in the order
// harness.RunResult.Records emits a live run, so the replayed bytes match
// the live bytes.
func (e *replayer) export() *Run {
	tail := harness.Tail{Book: e.book, End: e.end}
	if e.faults {
		tail.Transport = e.acct
	}
	if e.coord != nil {
		tail.Subspaces = e.coord.Subspaces()
	}
	for _, id := range e.leases {
		tail.Instances = append(tail.Instances, e.summaries[id])
	}
	tail.Records(e.out)
	return e.out.run
}
