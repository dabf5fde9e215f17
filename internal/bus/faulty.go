package bus

import (
	"fmt"

	"taopt/internal/device"
	"taopt/internal/faults"
	"taopt/internal/sim"
	"taopt/internal/trace"
)

// WithFaults wraps inner in the chaos transport: a simulated lossy, delaying
// farm network whose trace events may be dropped or arrive late, and whose
// allocation commands suffer injected outages and draw instance fates. Every
// decision comes from plan's deterministic streams and fires on the virtual
// clock, so a decorated run is exactly reproducible from its seed.
//
// A nil plan returns inner unchanged — fault-free runs pay nothing and the
// executor needs no fault-enabled branches.
func WithFaults(inner Transport, plan *faults.Plan, sched *sim.Scheduler) Transport {
	if plan == nil {
		return inner
	}
	return &faulty{inner: inner, plan: plan, sched: sched}
}

// faulty is the fault-decorator transport. It owns the *application* of the
// plan's decisions (dropping, rescheduling, failing commands, firing fates)
// and their accounting; the *drawing* of those decisions stays in
// faults.Plan so the RNG stream identities match the plan's documented fork
// layout.
type faulty struct {
	inner Transport
	plan  *faults.Plan
	sched *sim.Scheduler
	// overlay counts every injection this decorator applies, and the
	// commands it resolves without ever reaching inner (injected outages and
	// losses): attempts and failures must be counted exactly once, whichever
	// layer answers them.
	overlay Stats
}

// Publish implements Transport: each event is dropped, delayed, or forwarded
// per the plan's trace-delivery stream. A delayed event re-enters the inner
// transport when its delay elapses on the virtual clock.
//
//lint:hotpath
func (t *faulty) Publish(ev trace.Event) {
	drop, delay := t.plan.TraceDelivery(t.sched.Now())
	if drop {
		t.overlay.Dropped++
		return
	}
	if delay > 0 {
		t.overlay.Delayed++
		t.sched.After(delay, sim.EventFunc(func(*sim.Scheduler) {
			t.inner.Publish(ev)
		}))
		return
	}
	t.inner.Publish(ev)
}

// Subscribe implements Transport.
func (t *faulty) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }

// Bind implements Transport.
func (t *faulty) Bind(ex Executor) { t.inner.Bind(ex) }

// Send implements Transport. Allocation commands pass through the plan's
// outage model first; a successful allocation draws the new instance's fate
// and, if it is doomed, schedules the matching Kill/Hang command back through
// the inner transport at the fated time. Block commands may be swallowed by
// the plan's command-loss stream, reporting a timeout to the sender — loss,
// not silence, so the coordinator can classify and retry.
func (t *faulty) Send(cmd Command) Reply {
	switch cmd.Kind {
	case Allocate:
		if t.plan.AllocationFails(t.sched.Now()) {
			t.overlay.AllocFailures++
			t.swallow(cmd)
			return Reply{Err: fmt.Errorf("bus: injected allocation outage: %w", device.ErrFarmBusy)}
		}
		rep := t.inner.Send(cmd)
		if rep.Err == nil {
			if fate, fated := t.plan.InstanceFate(rep.Instance); fated {
				kind := Kill
				if fate.Kind == faults.Hang {
					kind = Hang
					t.overlay.Hangs++
				} else {
					t.overlay.Deaths++
				}
				id := rep.Instance
				t.sched.After(fate.After, sim.EventFunc(func(*sim.Scheduler) {
					t.inner.Send(Command{Kind: kind, Instance: id})
				}))
			}
		}
		return rep
	case BlockWidget, BlockMember:
		if t.plan.CommandLost(t.sched.Now()) {
			t.overlay.LostCommands++
			t.swallow(cmd)
			return Reply{Instance: cmd.Instance, Err: fmt.Errorf("bus: injected command loss: %w", ErrTimeout)}
		}
		return t.inner.Send(cmd)
	case Deallocate, Kill, Hang:
		// Releases and injected fates pass through untouched: the plan's
		// outage and loss models apply only to allocations and blocks.
		return t.inner.Send(cmd)
	default:
		return t.inner.Send(cmd)
	}
}

// swallow charges the overlay for a command this decorator failed without
// forwarding: still an attempt (Commands/ByKind) and a failure, mirroring
// Inline's attempt-first accounting.
func (t *faulty) swallow(cmd Command) {
	t.overlay.Commands++
	if cmd.Kind >= 0 && int(cmd.Kind) < NumCommandKinds {
		t.overlay.ByKind[cmd.Kind]++
	}
	t.overlay.CommandFailures++
}

// Stats implements Transport: the inner counts plus the overlay of
// injections and of commands answered at this layer. Dropped events were
// published at this transport but never reached inner, so they are added
// back into Published. Deaths and hangs count when the fate is drawn, so a
// fate scheduled past the run's end still counts.
func (t *faulty) Stats() Stats {
	s := t.inner.Stats()
	o := t.overlay
	s.Published += o.Dropped
	s.Commands += o.Commands
	for k, n := range o.ByKind {
		s.ByKind[k] += n
	}
	s.CommandFailures += o.CommandFailures
	s.Dropped = o.Dropped
	s.Delayed = o.Delayed
	s.Deaths = o.Deaths
	s.Hangs = o.Hangs
	s.AllocFailures = o.AllocFailures
	s.LostCommands = o.LostCommands
	return s
}
