// Package bus is the coordination transport layer: the message fabric
// between testing instances and the test coordinator. Trace events flow up
// (instance → coordinator) through Publish/Subscribe; entrypoint blocks and
// lifecycle commands flow down (coordinator → executor) through Send.
//
// TaOPT's contribution is making parallel-testing coordination
// tool-agnostic; this package makes it transport-agnostic the same way. The
// coordinator consumes trace events and emits commands without knowing
// whether they travel in-process (Inline) or through a lossy, delaying farm
// network (WithFaults) — and fault injection composes as a transport
// decorator instead of special cases inside the run executor.
package bus

import (
	"errors"

	"taopt/internal/device"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// CommandKind enumerates the coordinator → executor commands.
type CommandKind int

// Command kinds.
const (
	// Allocate boots a new testing instance; the Reply carries its ID.
	Allocate CommandKind = iota
	// Deallocate releases a running instance.
	Deallocate
	// BlockWidget disables one widget on one screen of one instance, so the
	// tool can no longer take that edge into a dedicated subspace.
	BlockWidget
	// BlockMember marks a screen as subspace-owned on one instance, so the
	// driver steers the tool out if it slips in through an unobserved edge.
	BlockMember
	// Kill terminates an instance's emulator process mid-run (injected
	// death); the instance silently stops stepping.
	Kill
	// Hang wedges an instance (injected hang): it stops producing trace
	// events but stays allocated and billed until released.
	Hang

	// NumCommandKinds bounds the kind space (for per-kind accounting arrays).
	NumCommandKinds = int(Hang) + 1
)

func (k CommandKind) String() string {
	switch k {
	case Allocate:
		return "allocate"
	case Deallocate:
		return "deallocate"
	case BlockWidget:
		return "block-widget"
	case BlockMember:
		return "block-member"
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	default:
		return "unknown-command"
	}
}

// Command is one coordinator → executor message. Instance addresses every
// kind except Allocate; Screen and Widget parameterise the block commands.
type Command struct {
	Kind     CommandKind
	Instance int
	Screen   ui.Signature
	Widget   ui.WidgetPath
}

// Reply is the executor's synchronous answer to a Command. For Allocate,
// Instance is the booted instance's ID.
type Reply struct {
	Instance int
	Err      error
}

// Sender is the coordinator-facing half of a transport: fire a command at
// the executor and get its reply. core.Coordinator holds only this.
type Sender interface {
	Send(cmd Command) Reply
}

// Executor is the executor-facing half: the run harness implements it to
// perform commands against the farm and the Toller drivers.
type Executor interface {
	Exec(cmd Command) Reply
}

// Stats is a transport's delivery accounting. Published counts trace events
// handed to the transport; Delivered counts those that reached subscribers
// (the difference is injected drops); Commands counts executor commands
// *attempted* — every Send, whether or not it succeeded. The fault counters
// count the injections the fault decorator applied and stay zero on an
// undecorated transport.
type Stats struct {
	Published int
	Delivered int
	Commands  int
	// ByKind breaks Commands down per CommandKind (indexed by the kind's
	// ordinal). An array, not a map, so Stats stays comparable — determinism
	// tests compare whole Stats values with ==.
	ByKind [NumCommandKinds]int
	// CommandFailures counts attempted commands whose reply carried an
	// error: unbound transport, farm saturation, injected outage or loss.
	// Commands - CommandFailures is the delivered-command count.
	CommandFailures int

	Dropped       int
	Delayed       int
	Deaths        int
	Hangs         int
	AllocFailures int
	// LostCommands counts downstream commands the fault plan swallowed
	// (reported to the sender as a timeout, never reaching the executor).
	LostCommands int
}

// KindCount returns the number of carried commands of one kind.
func (s Stats) KindCount(k CommandKind) int {
	if k < 0 || int(k) >= NumCommandKinds {
		return 0
	}
	return s.ByKind[k]
}

// Injected totals the injected faults the transport carried.
func (s Stats) Injected() int {
	return s.Dropped + s.Delayed + s.Deaths + s.Hangs + s.AllocFailures + s.LostCommands
}

// Transport carries both directions of the coordination protocol plus its
// accounting. Implementations are single-threaded, like everything on the
// virtual clock: one run owns one transport.
type Transport interface {
	Sender
	// Publish forwards one trace event toward the subscribers.
	Publish(ev trace.Event)
	// Subscribe registers a trace-event consumer. Subscribers are invoked in
	// registration order.
	Subscribe(fn func(ev trace.Event))
	// Bind attaches the executor endpoint that performs commands.
	Bind(ex Executor)
	// Stats returns the delivery accounting so far.
	Stats() Stats
}

// ErrNotBound is returned for commands sent before Bind.
var ErrNotBound = errors.New("bus: no executor bound")

// ErrFarmBusy is the retryable allocation sentinel, re-exported so the
// coordinator can classify Allocate replies without importing the
// instance-side device package (the bus is the only seam between them —
// see DESIGN.md §10). It aliases the farm's sentinel, so errors.Is matches
// wrapped errors from either side.
var ErrFarmBusy = device.ErrFarmBusy

// ErrTimeout is the retryable command-timeout sentinel: the command got no
// reply. The fault plan's command loss reports this way, because a sender
// cannot tell a swallowed command from a slow reply — loss reports as
// timeout, not as silence.
var ErrTimeout = errors.New("bus: command timed out")

// Retryable reports whether a command failure is transient and worth
// re-issuing: the farm was momentarily saturated, or the transport timed
// out waiting for a reply. Everything else (unbound transport, unknown
// instance, config errors) is permanent.
func Retryable(err error) bool {
	return errors.Is(err, ErrFarmBusy) || errors.Is(err, ErrTimeout)
}

// Inline is the synchronous in-process transport: events and commands are
// delivered immediately, in order, with no loss — the fabric of a fault-free
// simulated run.
type Inline struct {
	subs  []func(trace.Event)
	ex    Executor
	stats Stats
}

// NewInline returns an empty in-process transport.
func NewInline() *Inline { return &Inline{} }

// Publish implements Transport.
//
//lint:hotpath
func (t *Inline) Publish(ev trace.Event) {
	t.stats.Published++
	t.stats.Delivered++
	for _, fn := range t.subs {
		fn(ev)
	}
}

// Subscribe implements Transport.
func (t *Inline) Subscribe(fn func(ev trace.Event)) { t.subs = append(t.subs, fn) }

// Bind implements Transport.
func (t *Inline) Bind(ex Executor) { t.ex = ex }

// Send implements Transport. Every attempt is counted — Commands/ByKind
// record what the coordinator asked for; CommandFailures records which of
// those attempts came back with an error (unbound transport included), so
// attempted and delivered commands are never conflated.
//
//lint:hotpath
func (t *Inline) Send(cmd Command) Reply {
	t.stats.Commands++
	if cmd.Kind >= 0 && int(cmd.Kind) < NumCommandKinds {
		t.stats.ByKind[cmd.Kind]++
	}
	if t.ex == nil {
		t.stats.CommandFailures++
		return Reply{Err: ErrNotBound}
	}
	rep := t.ex.Exec(cmd)
	if rep.Err != nil {
		t.stats.CommandFailures++
	}
	return rep
}

// Stats implements Transport.
func (t *Inline) Stats() Stats { return t.stats }
