// Package harness executes testing campaigns: it wires an app, a testing
// tool, a device farm and a parallelization strategy onto the discrete-event
// scheduler and produces the measurements every table and figure of the
// paper is computed from.
package harness

import (
	"fmt"
	"io"

	"taopt/internal/app"
	"taopt/internal/bus"
	"taopt/internal/bus/wire"
	"taopt/internal/core"
	"taopt/internal/coverage"
	"taopt/internal/crash"
	"taopt/internal/device"
	"taopt/internal/faults"
	"taopt/internal/metrics"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/tools"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// Defaults matching the paper's setup (Section 6.1).
const (
	DefaultInstances   = 5
	DefaultDuration    = sim.Duration(3600e9) // l_p = 1 hour
	DefaultSampleEvery = sim.Duration(10e9)   // 10 s
)

// RunConfig describes one campaign run.
type RunConfig struct {
	App     *app.App
	Tool    string
	Setting Setting
	// Instances is d_max (default 5).
	Instances int
	// Duration is l_p, the wall-clock budget per run (default 1h).
	Duration sim.Duration
	// MachineBudget is the machine-time budget for TaOPTResource and the
	// wall budget for SingleLong (default Instances × Duration).
	MachineBudget sim.Duration
	// Seed drives every random decision of the run.
	Seed int64
	// ScenarioHash is the canonical content hash of the scenario document
	// that defined the run's app (internal/scenario). It is carried verbatim
	// into the export and binary-trace headers so every result file names
	// the exact scenario that produced it; empty for apps built in code.
	ScenarioHash string
	// SampleEvery is the timeline sampling period (default 10s).
	SampleEvery sim.Duration
	// CoreConfig optionally overrides TaOPT's coordinator configuration
	// (ablations); nil uses the mode's defaults.
	CoreConfig *core.Config
	// Faults, when non-nil and enabled, injects device-farm failures
	// (instance death/hang, allocation outages, trace drop/delay) from a
	// deterministic plan derived from the run seed. Nil runs fault-free.
	Faults *faults.Config
	// Telemetry enables the observability layer: the coordinator's decision
	// log and the run's metrics registry (see internal/obs). Off by default;
	// a disabled run carries a nil sink and pays nothing on the hot path.
	Telemetry bool
	// Replayable adds the coordination protocol to the BinTrace stream
	// (internal/bus/wire): every delivery, command exchange and boundary
	// effect, from which export.Replay re-derives the run byte-for-byte.
	// It needs BinTrace.
	Replayable bool
	// BinTrace, when non-nil, streams the run in the compact binary
	// trace+telemetry format (internal/trace/bin): events, samples and
	// decisions leave the process in fixed-size chunks as they happen, and
	// the bounded end-of-run summaries close the stream. export.ReadBin
	// rebuilds the JSON export from it losslessly.
	BinTrace io.Writer
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Instances == 0 {
		c.Instances = DefaultInstances
	}
	if c.Duration == 0 {
		c.Duration = DefaultDuration
	}
	if c.MachineBudget == 0 {
		c.MachineBudget = sim.Duration(c.Instances) * c.Duration
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	return c
}

// InstanceResult is the outcome of one testing-instance allocation.
type InstanceResult struct {
	ID        int
	Methods   *coverage.Set
	Crashes   *crash.Log
	Trace     *trace.Log
	Allocated sim.Duration
	Released  sim.Duration
	// Failed marks a lease terminated by an injected fault (death or hang)
	// rather than a deliberate release.
	Failed bool
}

// RunResult is the outcome of one campaign run.
type RunResult struct {
	Config    RunConfig
	Instances []InstanceResult
	Timeline  metrics.Timeline
	// Union is the cumulative covered-method set across instances.
	Union *coverage.Set
	// UniqueCrashes counts distinct crash signatures across instances.
	UniqueCrashes int
	// WallUsed and MachineUsed are the consumed budgets.
	WallUsed    sim.Duration
	MachineUsed sim.Duration
	// UIOccurrences counts tool-caused observations per distinct abstract
	// screen across all instances (Table 6's raw data).
	UIOccurrences map[ui.Signature]int
	// Subspaces are TaOPT's accepted subspaces (nil for baselines).
	Subspaces []*core.Subspace
	// CoordinatorStats counts TaOPT's coordinator decisions by obs.Kind*
	// constant, whether or not telemetry is on (nil for baselines).
	CoordinatorStats map[string]int
	// Book is the campaign's screen registry.
	Book *trace.Book
	// FailedInstances counts leases terminated by injected faults.
	FailedInstances int
	// Transport is the run's coordination-transport accounting: trace events
	// published and delivered, commands carried, and (on chaos runs) the
	// faults the decorated transport injected.
	Transport bus.Stats
	// OrphansPending is how many accepted subspaces still awaited a
	// replacement owner when the run ended (TaOPT settings only; always 0
	// unless DropOrphans or the run ends mid-outage).
	OrphansPending int
	// Telemetry holds the run's decision log and metrics registry when
	// RunConfig.Telemetry was set; nil otherwise.
	Telemetry *obs.Telemetry
	// Events is the number of scheduler events the run fired — the
	// deterministic work measure behind the bench harness's
	// virtual-events-per-second figure.
	Events uint64
}

// InstanceSets returns the per-instance covered-method sets.
func (r *RunResult) InstanceSets() []*coverage.Set {
	out := make([]*coverage.Set, len(r.Instances))
	for i := range r.Instances {
		out[i] = r.Instances[i].Methods
	}
	return out
}

// Traces returns the per-instance transition logs.
func (r *RunResult) Traces() []*trace.Log {
	out := make([]*trace.Log, len(r.Instances))
	for i := range r.Instances {
		out[i] = r.Instances[i].Trace
	}
	return out
}

// UIOccurrenceAverage is Table 6's per-run statistic.
func (r *RunResult) UIOccurrenceAverage() float64 {
	return metrics.UIOccurrenceAverage(r.UIOccurrences)
}

// Run executes one campaign run to completion on virtual time.
func Run(cfg RunConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	if cfg.App == nil {
		return nil, fmt.Errorf("harness: RunConfig.App is nil")
	}
	if _, err := tools.New(cfg.Tool, 0); err != nil {
		return nil, err
	}
	if !cfg.Setting.valid() {
		return nil, fmt.Errorf("harness: unknown setting %d (want 0..%d)", cfg.Setting, len(settingTable)-1)
	}
	if cfg.Replayable && cfg.BinTrace == nil {
		return nil, fmt.Errorf("harness: RunConfig.Replayable needs a BinTrace to record into")
	}
	r := newRunner(cfg)
	r.run()
	res := r.result()
	// A truncated binary trace must fail the run loudly: it would read as a
	// corrupt stream, or replay wrongly.
	if r.bin != nil {
		if err := r.bin.Close(); err != nil {
			return nil, fmt.Errorf("harness: binary trace: %w", err)
		}
	}
	return res, nil
}

// actor drives one testing instance: tool chooses, driver performs, repeat.
// It is its own step event, so scheduling a step allocates nothing.
type actor struct {
	r       *runner
	id      int
	al      *device.Allocation
	driver  *toller.Driver
	tool    tools.Tool
	stopped bool
	// hung marks an instance wedged by an injected fault: it stops
	// producing events but its lease stays allocated (and billed) until a
	// health monitor — or the end of the run — releases it.
	hung bool
	// failed marks an instance killed by an injected death.
	failed bool
}

type runner struct {
	cfg   RunConfig
	row   *settingRow
	sched *sim.Scheduler
	farm  *device.Farm
	book  *trace.Book
	rng   *sim.RNG
	// port is the coordination transport: drivers publish trace events into
	// it, the strategy subscribes, and every lifecycle/block command travels
	// through it. On chaos runs it is decorated with the fault plan
	// (bus.WithFaults); the runner itself has no fault-injection branches.
	port bus.Transport

	strategy strategy
	coord    *core.Coordinator // non-nil for TaOPT settings

	actors map[int]*actor
	order  []int // allocation order of actor ids

	wallDeadline  sim.Duration // 0 = none
	machineBudget sim.Duration // 0 = none
	ended         bool

	occurrences map[ui.Signature]int
	timeline    metrics.Timeline
	// cov keeps the sampled union and pairwise similarities between
	// samples.
	cov coverageSampler
	// tel is the run's telemetry (nil when RunConfig.Telemetry is off; every
	// producer below guards on it, so a disabled run takes no telemetry
	// branches beyond one nil check).
	tel *obs.Telemetry
	// rec writes the protocol records when RunConfig.Replayable is set.
	rec *wire.Recorder
	// bin is the streaming binary trace writer when RunConfig.BinTrace is
	// set (nil otherwise). It taps the driver-side ground truth, exactly
	// like the measurements: injected transport faults never reach it.
	bin *bin.Writer
}

func newRunner(cfg RunConfig) *runner {
	r := &runner{
		cfg:         cfg,
		row:         &settingTable[cfg.Setting],
		sched:       sim.NewScheduler(),
		book:        trace.NewBook(),
		rng:         sim.NewRNG(cfg.Seed),
		actors:      make(map[int]*actor),
		occurrences: make(map[ui.Signature]int),
	}
	if cfg.Telemetry {
		r.tel = obs.NewTelemetry()
	}

	wall, machine, maxDevices := r.row.limits(cfg)
	r.wallDeadline, r.machineBudget = wall, machine
	switch {
	case cfg.Replayable:
		r.bin = bin.NewReplayWriter(cfg.BinTrace, cfg.recordHeader(), bin.ReplayConfig{
			Instances:       cfg.Instances,
			MaxDevices:      maxDevices,
			DurationNS:      int64(cfg.Duration),
			MachineBudgetNS: int64(cfg.MachineBudget),
			SampleEveryNS:   int64(cfg.SampleEvery),
			CoreOverride:    cfg.CoreConfig != nil,
		})
		r.rec = wire.NewRecorder(r.bin, r.sched.Now, r.book)
	case cfg.BinTrace != nil:
		r.bin = bin.NewWriter(cfg.BinTrace, cfg.recordHeader())
	}
	if r.bin != nil && r.tel != nil {
		// Stream decisions out as the coordinator emits them instead of
		// buffering them to run end.
		r.tel.DecisionLog().Tee(r.bin.Decision)
	}
	r.farm = device.NewFarm(cfg.App, r.rng.Fork(1000003), maxDevices)
	// The transport stack, innermost first: the Inline base transport, the
	// fault decorator on chaos runs (a nil plan leaves it undecorated), and
	// — on a replayable run — the recorder's two taps: Inner below the
	// faults (what was delivered) and Outer above them (ground events and
	// command exchanges as the endpoints spoke them).
	// The runner binds itself as the executor endpoint before the strategy
	// is built, so TaOPT's coordinator can emit commands from its first
	// event.
	var base bus.Transport = bus.NewInline()
	if r.rec != nil {
		base = r.rec.Inner(base)
	}
	r.port = bus.WithFaults(base, faults.PlanFor(cfg.Faults, r.rng.Fork(7000003)), r.sched)
	if r.rec != nil {
		r.port = r.rec.Outer(r.port)
	}
	r.port.Bind(r)
	r.strategy = r.row.strategy(r)
	r.port.Subscribe(func(ev trace.Event) {
		if !r.ended {
			r.strategy.onEvent(ev)
		}
	})
	if r.tel != nil {
		// Count deliveries on the coordinator side of the transport: the gap
		// to the per-instance emitted counters is the injected trace loss.
		reg := r.tel.Registry()
		r.port.Subscribe(func(ev trace.Event) {
			reg.Inc(obs.InstanceCounter("bus.delivered", ev.Instance), 1)
		})
	}
	return r
}

// --- core.Env implementation -------------------------------------------

// Now implements core.Env.
func (r *runner) Now() sim.Duration { return r.sched.Now() }

// MaxInstances implements core.Env.
func (r *runner) MaxInstances() int { return r.farm.MaxDevices() }

// ActiveInstances implements core.Env.
func (r *runner) ActiveInstances() []int { return r.farm.ActiveIDs() }

// --- bus.Sender implementation -------------------------------------------

// Send is the client side of the transport, the coordinator's bus.Sender
// and the baselines' way down: every command travels to the executor below
// (possibly through the fault decorator). The lifecycle guards stay on
// this side, so an Allocate after the run ended or past the wall deadline
// is refused without consulting the transport. A busy (or
// outage-stricken) farm replies with an error wrapping
// device.ErrFarmBusy, which the coordinator retries with backoff.
func (r *runner) Send(cmd bus.Command) bus.Reply {
	if cmd.Kind == bus.Allocate {
		if r.ended {
			return r.localReject(cmd, fmt.Errorf("harness: run ended"))
		}
		if r.wallDeadline != 0 && r.sched.Now() >= r.wallDeadline {
			return r.localReject(cmd, fmt.Errorf("harness: wall deadline reached"))
		}
	}
	return r.port.Send(cmd)
}

// Allocate boots an instance for the baseline strategies through Send.
func (r *runner) Allocate() (int, error) {
	rep := r.Send(bus.Command{Kind: bus.Allocate})
	return rep.Instance, rep.Err
}

// localReject records a command the lifecycle guards refused on the client
// side, without consulting the transport. A replayable trace still carries
// the exchange, so replay resolves the same request with the same error.
func (r *runner) localReject(cmd bus.Command, err error) bus.Reply {
	rep := bus.Reply{Err: err}
	if r.rec != nil {
		r.rec.Local(cmd, rep)
	}
	return rep
}

// --- bus.Executor implementation -----------------------------------------

// Exec implements bus.Executor: the runner is the transport's executor
// endpoint, performing commands against the farm and the Toller drivers.
func (r *runner) Exec(cmd bus.Command) bus.Reply {
	switch cmd.Kind {
	case bus.Allocate:
		return r.execAllocate()
	case bus.Deallocate:
		return bus.Reply{Instance: cmd.Instance, Err: r.execDeallocate(cmd.Instance)}
	case bus.BlockWidget:
		r.blocks(cmd.Instance).BlockWidget(cmd.Screen, cmd.Widget)
		return bus.Reply{Instance: cmd.Instance}
	case bus.BlockMember:
		r.blocks(cmd.Instance).BlockMember(cmd.Screen)
		return bus.Reply{Instance: cmd.Instance}
	case bus.Kill:
		r.killInstance(cmd.Instance)
		return bus.Reply{Instance: cmd.Instance}
	case bus.Hang:
		r.hangInstance(cmd.Instance)
		return bus.Reply{Instance: cmd.Instance}
	default:
		return bus.Reply{Err: fmt.Errorf("harness: unknown command %s", cmd.Kind)}
	}
}

// execAllocate boots an instance, attaches the Toller driver and the tool,
// and schedules its first step.
func (r *runner) execAllocate() bus.Reply {
	if r.ended {
		return bus.Reply{Err: fmt.Errorf("harness: run ended")}
	}
	now := r.sched.Now()
	al, err := r.farm.Allocate(now)
	if err != nil {
		return bus.Reply{Err: err}
	}
	id := al.Emu.ID
	driver := toller.NewDriver(al.Emu, r.book, now)
	a := &actor{
		r:      r,
		id:     id,
		al:     al,
		driver: driver,
		tool:   tools.MustNew(r.cfg.Tool, r.rng.Fork(int64(id)).Int63()),
	}
	driver.Subscribe(toller.ListenerFunc(r.recordEvent))
	driver.Subscribe(toller.ListenerFunc(r.port.Publish))
	r.actors[id] = a
	r.order = append(r.order, id)
	if r.rec != nil {
		r.rec.Lease(id, driver.Trace().Events()[0])
	}
	if r.bin != nil {
		// The launch event was emitted before any listener subscribed, so it
		// never reaches recordEvent or the transport: record it directly.
		r.bin.Event(driver.Trace().Events()[0])
	}
	r.scheduleStep(a, 0)
	return bus.Reply{Instance: id}
}

// execDeallocate releases a running instance; hung instances end as failed
// leases.
func (r *runner) execDeallocate(id int) error {
	a, ok := r.actors[id]
	if !ok {
		return fmt.Errorf("harness: %w: %d", device.ErrUnknownInstance, id)
	}
	if a.stopped {
		return fmt.Errorf("harness: %w: %d", device.ErrDoubleRelease, id)
	}
	a.stopped = true
	now := r.sched.Now()
	if a.hung {
		_, err := r.farm.Fail(id, now)
		return err
	}
	_, err := r.farm.Release(id, now)
	return err
}

// killInstance executes a Kill command (an injected death): the emulator
// process is gone mid-run, the lease is charged machine time up to this
// moment, and the instance silently stops stepping — the coordinator finds
// out through its health monitor, exactly as a real farm's client would.
func (r *runner) killInstance(id int) {
	if r.ended {
		return
	}
	a, ok := r.actors[id]
	if !ok || a.stopped {
		return
	}
	a.stopped = true
	a.failed = true
	r.farm.Fail(id, r.sched.Now())
}

// hangInstance executes a Hang command (an injected hang): the instance
// stops producing trace events but stays allocated and billed until
// released.
func (r *runner) hangInstance(id int) {
	if r.ended {
		return
	}
	a, ok := r.actors[id]
	if !ok || a.stopped || a.hung {
		return
	}
	a.hung = true
}

// blocks returns one instance's block set for command execution.
func (r *runner) blocks(id int) *toller.BlockSet {
	a, ok := r.actors[id]
	if !ok {
		// The coordinator may race a just-deallocated instance; hand it a
		// throwaway set rather than crash the run.
		return toller.NewBlockSet()
	}
	return a.driver.Blocks()
}

// --- run loop ------------------------------------------------------------

// recordEvent keeps the experiment's ground-truth measurements. It taps the
// driver directly, before the transport: injected trace loss and delay
// degrade coordination (the strategy subscribes through the bus), never the
// measurements.
func (r *runner) recordEvent(ev trace.Event) {
	if r.bin != nil {
		r.bin.Event(ev)
	}
	if r.tel != nil {
		r.tel.Registry().Inc(obs.InstanceCounter("trace.emitted", ev.Instance), 1)
	}
	if ev.Enforced {
		return
	}
	r.occurrences[ev.To]++
}

func (r *runner) scheduleStep(a *actor, after sim.Duration) { r.sched.After(after, a) }

// Fire implements sim.Event: the actor's next step.
func (a *actor) Fire(*sim.Scheduler) { a.r.step(a) }

func (r *runner) step(a *actor) {
	if a.stopped || a.hung || r.ended {
		return
	}
	now := r.sched.Now()
	if r.wallDeadline != 0 && now >= r.wallDeadline {
		r.Send(bus.Command{Kind: bus.Deallocate, Instance: a.id})
		return
	}
	if r.machineBudget != 0 && r.farm.MachineTime(now) >= r.machineBudget {
		r.endRun()
		return
	}
	v := a.driver.View()
	act := a.tool.Choose(v)
	res := a.driver.Perform(act, now)
	if a.stopped || r.ended {
		// The strategy de-allocated this instance (stagnation) or ended the
		// run while handling the transition events.
		return
	}
	r.scheduleStep(a, res.Latency)
}

func (r *runner) endRun() {
	if r.ended {
		return
	}
	r.ended = true
	now := r.sched.Now()
	for _, a := range r.actors {
		a.stopped = true
	}
	r.failHungLeases(now)
	r.farm.ReleaseAll(now)
	r.sched.Halt()
}

// failHungLeases charges still-hung instances as failed before the final
// sweep, so end-of-run accounting distinguishes them from clean releases.
func (r *runner) failHungLeases(now sim.Duration) {
	for _, a := range r.actors {
		if a.hung && !a.al.Done() {
			r.farm.Fail(a.id, now)
		}
	}
}

func (r *runner) sample() {
	now := r.sched.Now()
	als := r.farm.All()
	if len(als) == 0 {
		return
	}
	sets := make([]*coverage.Set, len(als))
	logs := make([]*crash.Log, len(als))
	for i, al := range als {
		sets[i] = al.Emu.Coverage
		logs[i] = al.Emu.Crashes
	}
	p := metrics.Point{
		Wall:    now,
		Machine: r.farm.MachineTime(now),
		Crashes: crash.UniqueUnion(logs),
	}
	p.Covered, p.AJS = r.cov.sample(sets)
	r.timeline = append(r.timeline, p)
	if r.bin != nil {
		r.bin.Sample(sampleRecord(p))
	}
	if r.tel != nil {
		reg := r.tel.Registry()
		reg.Append("run.coverage", now, float64(p.Covered))
		reg.Append("run.crashes", now, float64(p.Crashes))
		active := r.farm.ActiveCount()
		reg.Append("fleet.active", now, float64(active))
		reg.Append("fleet.utilization", now, float64(active)/float64(r.farm.MaxDevices()))
		var widgets, members int
		for _, id := range r.order {
			if a := r.actors[id]; !a.stopped {
				widgets += a.driver.Blocks().WidgetBlockCount()
				members += a.driver.Blocks().MemberCount()
			}
		}
		reg.Append("blocks.widgets", now, float64(widgets))
		reg.Append("blocks.members", now, float64(members))
	}
}

func (r *runner) run() {
	r.strategy.start()
	// Periodic sampling until the run winds down. The same cadence drives
	// the strategy's tick (TaOPT's health monitor and allocation retries):
	// dead and hung instances produce no events, so event-driven hooks alone
	// would never notice them.
	var tick func(*sim.Scheduler)
	tick = func(*sim.Scheduler) {
		if r.ended {
			return
		}
		r.sample()
		now := r.sched.Now()
		if r.wallDeadline != 0 && now >= r.wallDeadline {
			return
		}
		if r.rec != nil {
			r.rec.TickMark()
		}
		r.strategy.tick(now)
		if r.ended {
			return
		}
		r.sched.After(r.cfg.SampleEvery, sim.EventFunc(tick))
	}
	r.sched.After(r.cfg.SampleEvery, sim.EventFunc(tick))

	r.sched.Run(r.wallDeadline)
	if !r.ended {
		r.ended = true
		now := r.sched.Now()
		r.failHungLeases(now)
		r.farm.ReleaseAll(now)
	}
	r.sample()
}

func (r *runner) result() *RunResult {
	res := &RunResult{
		Config:        r.cfg,
		Timeline:      r.timeline,
		WallUsed:      r.sched.Now(),
		MachineUsed:   r.farm.MachineTime(r.sched.Now()),
		UIOccurrences: r.occurrences,
		Book:          r.book,
		Events:        r.sched.Processed(),
	}
	for _, id := range r.order {
		a := r.actors[id]
		res.Instances = append(res.Instances, InstanceResult{
			ID:        id,
			Methods:   a.al.Emu.Coverage,
			Crashes:   a.al.Emu.Crashes,
			Trace:     a.driver.Trace(),
			Allocated: a.al.Since,
			Released:  a.al.Until,
			Failed:    a.al.Failed,
		})
	}
	res.FailedInstances = r.farm.FailedCount()
	res.Transport = r.port.Stats()
	if len(res.Instances) > 0 {
		res.Union = coverage.UnionOf(res.InstanceSets())
		logs := make([]*crash.Log, len(res.Instances))
		for i := range res.Instances {
			logs[i] = res.Instances[i].Crashes
		}
		res.UniqueCrashes = crash.UniqueUnion(logs)
	} else {
		res.Union = coverage.NewSet(r.cfg.App.MethodCount())
	}
	if r.coord != nil {
		res.Subspaces = r.coord.Subspaces()
		res.CoordinatorStats = r.coord.DecisionStats()
		res.OrphansPending = r.coord.OrphanCount()
	}
	if r.tel != nil {
		// Fold the transport's delivery accounting in as one more producer,
		// and close the books on the run-level aggregates.
		reg := r.tel.Registry()
		ts := res.Transport
		reg.Inc("bus.published", int64(ts.Published))
		reg.Inc("bus.delivered", int64(ts.Delivered))
		reg.Inc("bus.dropped", int64(ts.Dropped))
		reg.Inc("bus.delayed", int64(ts.Delayed))
		reg.Inc("bus.commands", int64(ts.Commands))
		for k := 0; k < bus.NumCommandKinds; k++ {
			reg.Inc("bus.commands."+bus.CommandKind(k).String(), int64(ts.ByKind[k]))
		}
		reg.SetGauge("run.wall_ns", float64(res.WallUsed))
		reg.SetGauge("run.machine_ns", float64(res.MachineUsed))
		reg.SetGauge("farm.failed_leases", float64(res.FailedInstances))
		for _, ir := range res.Instances {
			mins := float64(ir.Released-ir.Allocated) / 60e9
			reg.Observe("lease.duration_min", mins, 5, 15, 30, 60, 120)
		}
		res.Telemetry = r.tel
	}
	if r.bin != nil {
		if r.rec != nil {
			// The transport accounting replay reconciles against, recorded
			// whether or not the run injected faults.
			r.bin.Accounting(r.sched.Now(), res.transportRecord())
		}
		// The events, samples and decisions streamed live; close the
		// record with the run's tail.
		res.tail().Records(r.bin)
	}
	return res
}
