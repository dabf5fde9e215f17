// Package faults provides deterministic, seed-driven injection of
// device-farm failures for chaos campaigns.
//
// The paper's deployment target is an industrial testing cloud where
// emulators hang, ADB connections drop and instances die mid-run; related
// work reports that flaky infrastructure dominates CI failures and skews
// every tool comparison. A fault Plan reproduces those conditions inside the
// simulation: instance death (the emulator process dies mid-action),
// instance hang (the instance stops producing trace events but stays
// allocated and billed), transient allocation failure (the farm temporarily
// cannot boot a device) and delayed or lossy trace delivery to the analyzer.
//
// Determinism: every decision is drawn from streams forked off one sim.RNG,
// and per-instance fates are forked by instance ID, so a chaos run is
// exactly reproducible from its seed and one instance's fate never depends
// on how many random draws other faults consumed. Fault timing is expressed
// in the virtual clock of internal/sim; no wall-clock reads occur.
package faults

import (
	"fmt"

	"taopt/internal/sim"
)

// Kind enumerates the injected fault classes.
type Kind int

// Fault kinds.
const (
	// Death kills the emulator process mid-run: the instance stops stepping
	// and its lease is charged machine time up to the moment of death.
	Death Kind = iota
	// Hang wedges the instance: it stops producing trace events but stays
	// allocated (and billed) until a health monitor releases it.
	Hang
	// AllocFailure makes one farm allocation attempt fail transiently.
	AllocFailure
	// TraceDrop loses a trace event on its way to the analyzer.
	TraceDrop
	// TraceDelay delivers a trace event late.
	TraceDelay
)

func (k Kind) String() string {
	switch k {
	case Death:
		return "death"
	case Hang:
		return "hang"
	case AllocFailure:
		return "alloc-failure"
	case TraceDrop:
		return "trace-drop"
	case TraceDelay:
		return "trace-delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config parameterises a fault Plan. The zero value injects nothing.
type Config struct {
	// FailureRate is the probability that an allocated instance suffers an
	// instance-level fault (death or hang) during its lease. This is the
	// headline knob of the chaos experiment (0%, 5%, 20%).
	FailureRate float64
	// HangFraction is the share of instance failures that hang instead of
	// die.
	HangFraction float64
	// MinLife and MaxLife bound the uniform draw of time-to-failure after
	// allocation for instances fated to fail.
	MinLife, MaxLife sim.Duration
	// AllocFailRate is the probability that one allocation attempt fails
	// transiently (the farm cannot boot a device right now).
	AllocFailRate float64
	// AllocOutage is the window opened by a failed allocation attempt during
	// which every further attempt also fails — modelling a farm-wide
	// capacity outage rather than independent per-attempt noise.
	AllocOutage sim.Duration
	// TraceDropRate is the probability that a trace event is lost before
	// reaching the analyzer.
	TraceDropRate float64
	// TraceDelayRate is the probability that a delivered trace event is
	// delayed; TraceDelayMax bounds the uniform delay.
	TraceDelayRate float64
	TraceDelayMax  sim.Duration
	// CmdLossRate is the probability that one downstream block command
	// (BlockWidget/BlockMember) is swallowed by the farm network: the
	// executor never sees it and the sender gets a timeout instead of a
	// reply. Lifecycle commands are exempt — allocation noise has its own
	// outage model, and losing a Deallocate would fabricate undead leases.
	CmdLossRate float64
	// Context schedules declarative device-context windows (network loss,
	// low battery) on the virtual clock. Context decisions are checked before
	// any random draw, so configuring windows never perturbs the streams of
	// the probabilistic fault classes above.
	Context []ContextEvent
}

// DefaultConfig returns a calibrated fault mix scaled by the headline
// instance-failure rate: allocation outages at half the rate, occasional
// trace delays, and rare trace loss. MinLife/MaxLife place failures inside a
// typical lease (instances live minutes to tens of minutes before
// stagnation reaping), so deaths interrupt genuine work rather than firing
// after the instance would have been released anyway.
//
// CmdLossRate stays zero here: command loss is a separate robustness
// experiment (it exercises the coordinator's retransmit path), not part of
// the calibrated chaos mix the golden campaigns pin.
func DefaultConfig(failureRate float64) Config {
	return Config{
		FailureRate:    failureRate,
		HangFraction:   0.35,
		MinLife:        3 * sim.Duration(60e9),
		MaxLife:        40 * sim.Duration(60e9),
		AllocFailRate:  failureRate / 2,
		AllocOutage:    90 * sim.Duration(1e9),
		TraceDropRate:  failureRate / 20,
		TraceDelayRate: failureRate / 4,
		TraceDelayMax:  5 * sim.Duration(1e9),
	}
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.FailureRate > 0 || c.AllocFailRate > 0 || c.TraceDropRate > 0 ||
		c.TraceDelayRate > 0 || c.CmdLossRate > 0 || len(c.Context) > 0
}

// Fate is an instance-level fault scheduled at allocation time.
type Fate struct {
	Kind Kind
	// After is how long after allocation the fault fires.
	After sim.Duration
}

// Plan is one run's deterministic fault schedule. All methods are safe on a
// nil Plan (injecting nothing), so callers need no fault-enabled branches.
type Plan struct {
	cfg Config

	// base seeds the per-instance fate forks; alloc, tracer and cmds are
	// the allocation-attempt, trace-delivery and command-loss streams.
	// Keeping the streams separate means one fault class's draws never
	// perturb another's.
	base   *sim.RNG
	alloc  *sim.RNG
	tracer *sim.RNG
	cmds   *sim.RNG

	outageUntil sim.Duration
}

// NewPlan derives a plan from cfg and an RNG (typically a fork of the run's
// campaign RNG). The source RNG is not perturbed.
func NewPlan(cfg Config, rng *sim.RNG) *Plan {
	if cfg.MaxLife < cfg.MinLife {
		cfg.MaxLife = cfg.MinLife
	}
	return &Plan{
		cfg:    cfg,
		base:   rng.Fork(1),
		alloc:  rng.Fork(2),
		tracer: rng.Fork(3),
		cmds:   rng.Fork(4),
	}
}

// PlanFor derives a plan from an optional config: a nil or disabled config
// yields a nil plan (every Plan method is nil-safe), so callers need no
// fault-enabled branches of their own.
func PlanFor(cfg *Config, rng *sim.RNG) *Plan {
	if cfg == nil || !cfg.Enabled() {
		return nil
	}
	return NewPlan(*cfg, rng)
}

// InstanceFate decides, at allocation time, whether and how the instance
// with the given ID will fail. The decision is drawn from a stream forked
// per instance ID off the plan's base stream.
func (p *Plan) InstanceFate(id int) (Fate, bool) {
	if p == nil || p.cfg.FailureRate <= 0 {
		return Fate{}, false
	}
	rng := p.base.Fork(int64(id))
	if !rng.Bool(p.cfg.FailureRate) {
		return Fate{}, false
	}
	fate := Fate{Kind: Death, After: rng.DurationBetween(p.cfg.MinLife, p.cfg.MaxLife)}
	if rng.Bool(p.cfg.HangFraction) {
		fate.Kind = Hang
	}
	return fate, true
}

// AllocationFails reports whether one allocation attempt at virtual time now
// fails transiently. A failed attempt opens an AllocOutage window during
// which every further attempt fails too.
func (p *Plan) AllocationFails(now sim.Duration) bool {
	if p == nil {
		return false
	}
	if _, ok := p.contextActive(now, NetworkLoss); ok {
		return true
	}
	if p.cfg.AllocFailRate <= 0 {
		return false
	}
	if now < p.outageUntil {
		return true
	}
	if !p.alloc.Bool(p.cfg.AllocFailRate) {
		return false
	}
	if p.cfg.AllocOutage > 0 {
		p.outageUntil = now + p.cfg.AllocOutage
	}
	return true
}

// TraceDelivery decides the fate of one trace event sent at virtual time now
// en route to the analyzer: dropped, delayed by the returned amount, or
// delivered intact. Context windows are consulted first and decide without a
// draw: an active network-loss window drops the event, an active battery-low
// window delays it by the window's fixed Delay.
func (p *Plan) TraceDelivery(now sim.Duration) (drop bool, delay sim.Duration) {
	if p == nil {
		return false, 0
	}
	if _, ok := p.contextActive(now, NetworkLoss); ok {
		return true, 0
	}
	if ev, ok := p.contextActive(now, BatteryLow); ok && ev.Delay > 0 {
		return false, ev.Delay
	}
	if p.cfg.TraceDropRate <= 0 && p.cfg.TraceDelayRate <= 0 {
		return false, 0
	}
	if p.cfg.TraceDropRate > 0 && p.tracer.Bool(p.cfg.TraceDropRate) {
		return true, 0
	}
	if p.cfg.TraceDelayRate > 0 && p.tracer.Bool(p.cfg.TraceDelayRate) {
		return false, p.tracer.DurationBetween(200*sim.Duration(1e6), p.cfg.TraceDelayMax)
	}
	return false, 0
}

// CommandLost decides whether one downstream block command sent at virtual
// time now is swallowed by the simulated farm network. An active
// network-loss window swallows it without a draw; otherwise the decision is
// drawn from the dedicated cmds stream, so enabling command loss never
// perturbs the other fault classes' draws.
func (p *Plan) CommandLost(now sim.Duration) bool {
	if p == nil {
		return false
	}
	if _, ok := p.contextActive(now, NetworkLoss); ok {
		return true
	}
	return p.cfg.CmdLossRate > 0 && p.cmds.Bool(p.cfg.CmdLossRate)
}
