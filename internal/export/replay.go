// Replay: re-derive a run's export from its recorded wire log.
//
// The wire log is the full bidirectional message record of a run (see
// internal/bus/wire): ground trace events, post-fault deliveries, every
// Command/Reply exchange, and the boundary effects (leases, screen
// definitions, ticks, samples, per-lease summaries, run totals). Those
// frames are sufficient to re-drive the coordinator — and only the
// coordinator — without the farm, the testing tools or the fault plan:
// tool decisions are replayed from the recorded events, never re-run.
//
// Replay is strict. The coordinator's sends are matched frame-for-frame
// against the recorded coordinator exchanges; any divergence (a command the
// log does not carry next, a recorded coordinator command the replayed
// coordinator does not send, a count that does not reconcile with the
// recorded run totals) is an error, not a best-effort continuation. A wire
// log either reproduces its run byte-for-byte or it fails loudly.
package export

import (
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
)

// ReplayWireLog re-drives the run recorded in rd and returns its export —
// byte-identical to the live run's — plus the re-derived coordinator
// decision log (empty for baseline settings). The telemetry block is never
// emitted: the metrics registry samples live harness state the log does not
// carry, so a telemetry-enabled run replays to its telemetry-free export.
func ReplayWireLog(rd io.Reader) (*Run, *obs.Log, error) {
	log, err := wire.ReadLog(rd)
	if err != nil {
		return nil, nil, err
	}
	if log.Header.CoreOverride {
		return nil, nil, fmt.Errorf("export: replay: run used a caller-supplied core.Config, which wire logs do not serialise")
	}
	h := log.Header
	e := &wireReplay{
		hdr:    h,
		frames: log.Frames,
		book:   trace.NewBook(),
		out: newBuilder(bin.Header{
			App: h.App, Tool: h.Tool, Setting: h.Setting, Seed: h.Seed,
			ScenarioHash: h.ScenarioHash, ExportVersion: FormatVersion,
			Faults: h.FaultsEnabled,
		}),
		summaries: make(map[int]wire.Summary),
		decisions: &obs.Log{},
	}
	switch e.hdr.Setting {
	case "taopt-duration":
		e.buildCoordinator(core.DurationConstrained)
	case "taopt-resource":
		e.buildCoordinator(core.ResourceConstrained)
	}
	if e.coord != nil {
		e.coord.Start()
	}
	e.drive()
	if e.err != nil {
		return nil, nil, e.err
	}
	if err := e.reconcile(); err != nil {
		return nil, nil, err
	}
	return e.export(), e.decisions, nil
}

// wireReplay re-drives one recorded run. It implements core.Env and
// bus.Sender against the frame cursor: where the live coordinator talked to
// the harness and the transport, the replayed one talks to the log.
type wireReplay struct {
	hdr    wire.Header
	frames []wire.Frame
	pos    int
	now    sim.Duration

	// active mirrors the farm's active-allocation set. Instance IDs are
	// allocated monotonically and device.Farm.Active sorts by ID, so a
	// sorted ID slice reproduces ActiveInstances exactly.
	active []int

	book      *trace.Book
	coord     *core.Coordinator
	decisions *obs.Log

	// out receives the recorded events and samples as they are consumed;
	// export closes it with the re-derived tail.
	out        *builder
	leaseOrder []int
	summaries  map[int]wire.Summary
	end        *wire.RunEnd
	grounds    int
	delivered  int

	err error
}

// senderFunc adapts the engine's frame-matching send to bus.Sender.
type senderFunc func(bus.Command) bus.Reply

func (f senderFunc) Send(cmd bus.Command) bus.Reply { return f(cmd) }

func (e *wireReplay) buildCoordinator(mode core.Mode) {
	cfg := core.DefaultConfig(mode)
	cfg.Obs = e.decisions
	e.coord = core.NewCoordinator(cfg, e, senderFunc(e.send), e.book)
}

func (e *wireReplay) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("export: replay: frame %d: %s", e.pos, fmt.Sprintf(format, args...))
	}
}

func (e *wireReplay) next() (wire.Frame, bool) {
	if e.err != nil || e.pos >= len(e.frames) {
		return wire.Frame{}, false
	}
	f := e.frames[e.pos]
	e.pos++
	e.now = f.At
	return f, true
}

// --- core.Env ------------------------------------------------------------

func (e *wireReplay) Now() sim.Duration { return e.now }

func (e *wireReplay) MaxInstances() int { return e.hdr.MaxDevices }

func (e *wireReplay) ActiveInstances() []int {
	return append([]int(nil), e.active...)
}

func (e *wireReplay) Allocate() (int, error) {
	rep := e.send(bus.Command{Kind: bus.Allocate})
	return rep.Instance, rep.Err
}

func (e *wireReplay) Deallocate(id int) error {
	return e.send(bus.Command{Kind: bus.Deallocate, Instance: id}).Err
}

// --- frame consumption ---------------------------------------------------

// send matches one coordinator-originated command against the next recorded
// exchange and returns the recorded reply. The live run's decision sequence
// is deterministic, so the replayed coordinator must ask for exactly what
// the log carries next — anything else is divergence.
func (e *wireReplay) send(cmd bus.Command) bus.Reply {
	f, ok := e.next()
	if !ok {
		e.fail("coordinator sent %s but the log has no frames left", cmd.Kind)
		return bus.Reply{Err: fmt.Errorf("export: replay diverged")}
	}
	if f.Kind != wire.FrameCommand {
		e.fail("coordinator sent %s but the log carries a %v frame", cmd.Kind, f.Kind)
		return bus.Reply{Err: fmt.Errorf("export: replay diverged")}
	}
	if f.Cmd != cmd || !f.Coord {
		e.fail("coordinator sent %+v but the log recorded %+v (coordinator-sent: %v)", cmd, f.Cmd, f.Coord)
		return bus.Reply{Err: fmt.Errorf("export: replay diverged")}
	}
	return e.consumeExchange(cmd)
}

// consumeExchange reads the effect frames of one in-flight command (screen
// definitions, instance leases) up to its reply, then applies the exchange
// to the mirrored farm state.
func (e *wireReplay) consumeExchange(cmd bus.Command) bus.Reply {
	for {
		f, ok := e.next()
		if !ok {
			e.fail("exchange for %s has no reply", cmd.Kind)
			return bus.Reply{Err: fmt.Errorf("export: replay diverged")}
		}
		//lint:allow exhaustive "only screen, lease and reply frames are legal inside an exchange; the default fails the replay as divergence"
		switch f.Kind {
		case wire.FrameScreen:
			e.observe(f)
		case wire.FrameLease:
			e.lease(f)
		case wire.FrameReply:
			e.apply(cmd, f.Reply)
			return f.Reply
		default:
			e.fail("unexpected %v frame inside a %s exchange", f.Kind, cmd.Kind)
			return bus.Reply{Err: fmt.Errorf("export: replay diverged")}
		}
	}
}

// apply mirrors an exchange's effect on the farm's active set.
func (e *wireReplay) apply(cmd bus.Command, rep bus.Reply) {
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
		// Blocks steer tools and fates arrive as FrameFate injections;
		// neither changes the mirrored active set here.
	}
}

func (e *wireReplay) addActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		return
	}
	e.active = append(e.active, 0)
	copy(e.active[i+1:], e.active[i:])
	e.active[i] = id
}

func (e *wireReplay) removeActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		e.active = append(e.active[:i], e.active[i+1:]...)
	}
}

func (e *wireReplay) observe(f wire.Frame) {
	sig := e.book.Observe(f.Screen)
	if sig != f.Sig {
		e.fail("screen definition hashes to %v, recorded as %v (codec or abstraction drift)", sig, f.Sig)
	}
}

func (e *wireReplay) lease(f wire.Frame) {
	e.leaseOrder = append(e.leaseOrder, f.Instance)
	e.out.Event(f.Event)
}

// drive consumes the top-level frame stream: ground events and samples feed
// the run builder, deliveries feed the coordinator, runner-sent
// exchanges and fate injections update the mirrored farm state. A
// coordinator-sent exchange is consumed only by the replayed coordinator's
// own send; meeting one here means the replay diverged.
func (e *wireReplay) drive() {
	for e.err == nil && e.pos < len(e.frames) {
		f, _ := e.next()
		switch f.Kind {
		case wire.FrameScreen:
			e.observe(f)
		case wire.FrameEvent:
			e.grounds++
			e.out.Event(f.Event)
		case wire.FrameDelivered:
			e.delivered++
			if e.coord != nil {
				e.coord.OnTransition(f.Event)
			}
		case wire.FrameCommand:
			if f.Coord {
				e.fail("the log records a coordinator %s the replayed coordinator did not send", f.Cmd.Kind)
				break
			}
			// A runner-sent exchange: a baseline strategy's allocation, an
			// end-of-run deallocation, or a guard-rejected request.
			e.consumeExchange(f.Cmd)
		case wire.FrameFate:
			// An injected Kill removes the instance from the farm; a Hang
			// leaves it allocated (and billed) in place.
			if f.Cmd.Kind == bus.Kill {
				e.removeActive(f.Cmd.Instance)
			}
		case wire.FrameLease:
			e.lease(f)
		case wire.FrameTick:
			if e.coord != nil {
				e.coord.Tick(f.At)
			}
		case wire.FrameSample:
			e.out.Sample(f.Sample)
		case wire.FrameInstance:
			e.summaries[f.Summary.ID] = f.Summary
		case wire.FrameRunEnd:
			e.end = &f.End
		case wire.FrameHeader, wire.FrameReply:
			// The header is consumed before drive starts and replies are
			// consumed inside their exchange; either at top level means the
			// log and this replayer have diverged.
			e.fail("%v frame outside its exchange (replay diverged)", f.Kind)
		default:
			e.fail("unhandled frame kind %v", f.Kind)
		}
	}
}

// reconcile cross-checks the re-driven state against the recorded run
// totals: the frame counts must reconcile with the transport accounting and
// the replayed coordinator must land in the recorded end state.
func (e *wireReplay) reconcile() error {
	if e.end == nil {
		return fmt.Errorf("export: replay: log carries no run-end frame (truncated recording)")
	}
	// Every ground frame is a publish the transport counted — except delayed
	// events the run ended before re-delivering, which the recorder saw at
	// emission but the accounting never credits. Allow exactly that slack.
	if lost := e.grounds - e.end.Stats.Published; lost < 0 || lost > e.end.Stats.Delayed {
		return fmt.Errorf("export: replay: %d ground event frames but the run published %d (delayed %d)",
			e.grounds, e.end.Stats.Published, e.end.Stats.Delayed)
	}
	if e.delivered != e.end.Stats.Delivered {
		return fmt.Errorf("export: replay: %d delivery frames but the run delivered %d", e.delivered, e.end.Stats.Delivered)
	}
	if e.coord != nil && e.coord.OrphanCount() != e.end.OrphansPending {
		return fmt.Errorf("export: replay: coordinator ends with %d pending orphans, run recorded %d", e.coord.OrphanCount(), e.end.OrphansPending)
	}
	for _, id := range e.leaseOrder {
		if _, ok := e.summaries[id]; !ok {
			return fmt.Errorf("export: replay: instance %d has a lease but no end-of-run summary", id)
		}
	}
	return nil
}

// export closes the run builder with the re-derived tail, in the order
// harness.RunResult.Records emits a live run, so the replayed bytes match
// the live bytes.
func (e *wireReplay) export() *Run {
	end := e.end
	tail := harness.Tail{
		Book:            e.book,
		Faults:          e.hdr.FaultsEnabled,
		Stats:           end.Stats,
		FailedInstances: end.FailedInstances,
		OrphansPending:  end.OrphansPending,
		End: bin.End{
			WallNS: end.WallNS, MachineNS: end.MachineNS,
			Coverage: end.Coverage, UniqueCrashes: end.UniqueCrashes,
		},
	}
	if e.coord != nil {
		tail.Subspaces = e.coord.Subspaces()
	}
	for _, id := range e.leaseOrder {
		tail.Instances = append(tail.Instances, e.summaries[id])
	}
	tail.Records(e.out)
	return e.out.run
}

// Statically assert the engine satisfies the coordinator's environment seam.
var _ core.Env = (*wireReplay)(nil)
