// Package wire records the coordination protocol of internal/bus into a
// run's binary trace: every trace event delivered to the coordinator and
// every Command/Reply exchange, plus the boundary effects replay needs
// (screen trees, leases, fates, ticks). They travel as the protocol records
// of a replayable .taoptb stream (internal/trace/bin), next to the ground
// events, samples and summaries the stream carries anyway, and
// export.Replay re-drives the run from them byte-for-byte. The recorded
// stream, not the process that produced it, is the reproducibility
// contract, and replaying it is the proof that the protocol survives
// serialisation.
package wire

import (
	"errors"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// Recorder writes a run's protocol records into its replayable binary
// trace.
//
// It decorates the transport stack at two seams:
//
//	port := rec.Outer( WithFaults( rec.Inner(base), plan, sched ) )
//
// Outer sees the protocol as the endpoints speak it (ground events before
// fault decoration, commands with their replies); Inner sees what survived
// the fault plan (delivered events, injected fates). Ground events are the
// stream's own event records, so Outer only defines the screens they
// reference. Recording both sides makes the stream self-contained:
// export.Replay re-drives the coordinator from the delivered records and
// rebuilds the export from the ground records, with no farm, tools or fault
// plan present.
type Recorder struct {
	w    *bin.Writer
	now  func() sim.Duration
	book *trace.Book
	seen map[ui.Signature]bool
	// depth distinguishes sends traversing the stack (recorded once, by
	// Outer) from fate injections entering below it (recorded by Inner as
	// fates).
	depth int
	// coordinating marks the exchanges recorded while the coordinator is
	// calling into the run; their command records carry Command.Coord.
	coordinating bool
}

// NewRecorder records into w, which must have been opened with
// bin.NewReplayWriter. book resolves screen signatures to exemplar
// hierarchies for lazy tree definitions; now supplies record timestamps.
// Write errors latch in w.
func NewRecorder(w *bin.Writer, now func() sim.Duration, book *trace.Book) *Recorder {
	return &Recorder{w: w, now: now, book: book, seen: make(map[ui.Signature]bool)}
}

// define writes a tree record for each not-yet-defined signature, so every
// protocol record that references a signature is preceded by its
// definition. Screens are defined in first-reference order, which (because
// the driver publishes immediately after every first-sight Observe) equals
// the trace book's insertion order — replay rebuilds an identical book.
func (r *Recorder) define(sigs ...ui.Signature) {
	for _, sig := range sigs {
		if sig == 0 || r.seen[sig] {
			continue
		}
		screen := r.book.Lookup(sig)
		if screen == nil {
			// Not in the book yet (e.g. a zero-valued From); the record's
			// consumer treats undefined signatures as opaque.
			continue
		}
		r.seen[sig] = true
		r.w.Tree(r.now(), uint64(sig), screen)
	}
}

// Lease records one instance boot. The launch event, which the driver
// emits before any listener subscribes, is the stream's next event record.
func (r *Recorder) Lease(id int, launch trace.Event) {
	r.define(launch.To)
	r.w.Lease(r.now(), id)
}

// Coordinating marks whether the exchanges recorded from now on are sent by
// the coordinator. The harness sets it around every call the coordinator
// makes into the run, so replay can tell a recorded coordinator command the
// replayed coordinator failed to send from one the runner sent on its own.
func (r *Recorder) Coordinating(on bool) { r.coordinating = on }

// Local records a Command/Reply exchange the runner resolved without
// touching the transport (end-of-run allocation guards). Replay matches
// these records exactly like transported exchanges.
func (r *Recorder) Local(cmd bus.Command, rep bus.Reply) {
	r.w.Command(r.now(), encodeCommand(cmd, r.coordinating))
	r.w.Reply(r.now(), encodeReply(rep))
}

// TickMark records one strategy tick.
func (r *Recorder) TickMark() { r.w.Tick(r.now()) }

// Outer decorates the coordinator-facing transport: it defines the screens
// of ground events and records every Command/Reply exchange.
func (r *Recorder) Outer(t bus.Transport) bus.Transport { return &outerRec{rec: r, inner: t} }

// Inner decorates the transport below the fault plan: it records what was
// actually delivered (post-drop/delay) and the plan's fate injections.
func (r *Recorder) Inner(t bus.Transport) bus.Transport { return &innerRec{rec: r, inner: t} }

type outerRec struct {
	rec   *Recorder
	inner bus.Transport
}

func (t *outerRec) Publish(ev trace.Event) {
	t.rec.define(ev.From, ev.To)
	t.inner.Publish(ev)
}

func (t *outerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *outerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *outerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *outerRec) Send(cmd bus.Command) bus.Reply {
	t.rec.define(cmd.Screen)
	t.rec.w.Command(t.rec.now(), encodeCommand(cmd, t.rec.coordinating))
	t.rec.depth++
	rep := t.inner.Send(cmd)
	t.rec.depth--
	// Effect records written during the exchange (screen trees, leases,
	// launch events) sit between the command and its reply; replay
	// consumes them in place.
	t.rec.w.Reply(t.rec.now(), encodeReply(rep))
	return rep
}

type innerRec struct {
	rec   *Recorder
	inner bus.Transport
}

func (t *innerRec) Publish(ev trace.Event) {
	t.rec.define(ev.From, ev.To)
	t.rec.w.Delivered(t.rec.now(), ev)
	t.inner.Publish(ev)
}

func (t *innerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *innerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *innerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *innerRec) Send(cmd bus.Command) bus.Reply {
	if t.rec.depth == 0 {
		// A fate injection from the fault plan, entering below the
		// coordinator; a command traversing the stack was recorded by
		// Outer.
		t.rec.w.Fate(t.rec.now(), encodeCommand(cmd, false))
	}
	return t.inner.Send(cmd)
}

// --- commands, replies and error classes ----------------------------------

func encodeCommand(c bus.Command, coord bool) bin.Command {
	return bin.Command{
		Kind: byte(c.Kind), Instance: c.Instance,
		Screen: uint64(c.Screen), Widget: string(c.Widget), Coord: coord,
	}
}

// DecodeCommand rebuilds a recorded command.
func DecodeCommand(c bin.Command) bus.Command {
	return bus.Command{
		Kind: bus.CommandKind(c.Kind), Instance: c.Instance,
		Screen: ui.Signature(c.Screen), Widget: ui.WidgetPath(c.Widget),
	}
}

// Reply errors are recorded as a sentinel class plus the full message, so
// the coordinator's two error probes — errors.Is against the retry
// sentinels and err.Error() for the decision log — behave identically
// whether a reply came from the live transport or a replayed stream.
const (
	errClassNone byte = iota
	errClassBusy
	errClassTimeout
	errClassNotBound
	errClassOther
)

func encodeReply(rep bus.Reply) bin.Reply {
	out := bin.Reply{Instance: rep.Instance}
	switch err := rep.Err; {
	case err == nil:
		return out
	case errors.Is(err, bus.ErrFarmBusy):
		out.ErrClass = errClassBusy
	case errors.Is(err, bus.ErrTimeout):
		out.ErrClass = errClassTimeout
	case errors.Is(err, bus.ErrNotBound):
		out.ErrClass = errClassNotBound
	default:
		out.ErrClass = errClassOther
	}
	out.Err = rep.Err.Error()
	return out
}

// DecodeReply rebuilds a recorded reply, restoring its error's sentinel
// chain.
func DecodeReply(rep bin.Reply) bus.Reply {
	out := bus.Reply{Instance: rep.Instance}
	switch rep.ErrClass {
	case errClassNone:
	case errClassBusy:
		out.Err = &replyError{msg: rep.Err, sentinel: bus.ErrFarmBusy}
	case errClassTimeout:
		out.Err = &replyError{msg: rep.Err, sentinel: bus.ErrTimeout}
	case errClassNotBound:
		out.Err = &replyError{msg: rep.Err, sentinel: bus.ErrNotBound}
	default:
		out.Err = errors.New(rep.Err)
	}
	return out
}

// replyError is a decoded reply error: the original message with the
// sentinel chain restored.
type replyError struct {
	msg      string
	sentinel error
}

func (e *replyError) Error() string { return e.msg }
func (e *replyError) Unwrap() error { return e.sentinel }
