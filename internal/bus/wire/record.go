package wire

import (
	"fmt"
	"io"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Recorder captures a run's full bidirectional message log — every ground
// event, every post-fault delivery, every Command/Reply exchange, plus the
// boundary effects replay needs (instance leases, screen definitions, ticks,
// samples) — to one deterministic wire-log file.
//
// It decorates the transport stack at two seams:
//
//	port := rec.Outer( WithFaults( rec.Inner(base), plan, sched ) )
//
// Outer sees the protocol as the endpoints speak it (ground events before
// fault decoration, commands with their replies); Inner sees what survived
// the fault plan (delivered events, injected fates). Recording both sides
// makes the log self-contained: export.ReplayWireLog re-drives the
// coordinator from the Delivered frames and rebuilds the export from the
// ground frames, byte-for-byte, with no farm, tools or fault plan present.
type Recorder struct {
	w    io.Writer
	now  func() sim.Duration
	book *trace.Book
	seen map[ui.Signature]bool
	// depth distinguishes sends traversing the stack (recorded once, by
	// Outer) from fate injections entering below it (recorded by Inner as
	// FrameFate).
	depth int
	// coordinating marks the exchanges recorded while the coordinator is
	// calling into the run; their command frames carry Frame.Coord.
	coordinating bool
	err          error
}

// NewRecorder starts a wire log on w: magic, version, then the header frame.
// book resolves screen signatures to exemplar hierarchies for lazy
// FrameScreen definitions; now supplies frame timestamps.
func NewRecorder(w io.Writer, now func() sim.Duration, book *trace.Book, hdr Header) *Recorder {
	r := &Recorder{w: w, now: now, book: book, seen: make(map[ui.Signature]bool)}
	if _, err := w.Write(append([]byte(logMagic), logVersion)); err != nil {
		r.fail(err)
	}
	r.frame(Frame{Kind: FrameHeader, At: 0, Header: hdr})
	return r
}

// Err returns the first write or encode error, or nil. The harness surfaces
// it at the end of the run — a truncated wire log must fail loudly, not
// replay wrongly.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: recording: %w", err)
	}
}

func (r *Recorder) frame(f Frame) {
	if r.err != nil {
		return
	}
	buf, err := appendFrame(nil, f)
	if err != nil {
		r.fail(err)
		return
	}
	if _, err := r.w.Write(buf); err != nil {
		r.fail(err)
	}
}

// define writes a FrameScreen for each not-yet-defined signature, so every
// frame that references a signature is preceded by its definition. Screens
// are defined in first-reference order, which (because the driver publishes
// immediately after every first-sight Observe) equals the trace book's
// insertion order — replay rebuilds an identical book.
func (r *Recorder) define(sigs ...ui.Signature) {
	for _, sig := range sigs {
		if sig == 0 || r.seen[sig] {
			continue
		}
		screen := r.book.Lookup(sig)
		if screen == nil {
			// Not in the book yet (e.g. a zero-valued From); the frame's
			// consumer treats undefined signatures as opaque.
			continue
		}
		r.seen[sig] = true
		r.frame(Frame{Kind: FrameScreen, At: r.now(), Sig: sig, Screen: screen})
	}
}

// Lease records one instance boot: the ID plus the initial launch event,
// which the driver emits before any listener subscribes (so it never crosses
// the transport and must be captured here).
func (r *Recorder) Lease(id int, launch trace.Event) {
	r.define(launch.To)
	r.frame(Frame{Kind: FrameLease, At: r.now(), Instance: id, Event: launch})
}

// Coordinating marks whether the exchanges recorded from now on are sent by
// the coordinator. The harness sets it around every call the coordinator
// makes into the run, so replay can tell a recorded coordinator command the
// replayed coordinator failed to send from one the runner sent on its own.
func (r *Recorder) Coordinating(on bool) { r.coordinating = on }

// Local records a Command/Reply exchange the runner resolved without
// touching the transport (end-of-run allocation guards). Replay matches
// these frames exactly like transported exchanges.
func (r *Recorder) Local(cmd bus.Command, rep bus.Reply) {
	r.frame(Frame{Kind: FrameCommand, At: r.now(), Cmd: cmd, Coord: r.coordinating})
	r.frame(Frame{Kind: FrameReply, At: r.now(), Reply: rep})
}

// TickMark records one strategy tick.
func (r *Recorder) TickMark() { r.frame(Frame{Kind: FrameTick, At: r.now()}) }

// Sample records one timeline sample point.
func (r *Recorder) Sample(s Sample) { r.frame(Frame{Kind: FrameSample, At: r.now(), Sample: s}) }

// Instance records one lease's end-of-run summary.
func (r *Recorder) Instance(s Summary) { r.frame(Frame{Kind: FrameInstance, At: r.now(), Summary: s}) }

// End closes the log with the run's totals.
func (r *Recorder) End(e RunEnd) { r.frame(Frame{Kind: FrameRunEnd, At: r.now(), End: e}) }

// Outer decorates the coordinator-facing transport: it records ground
// events on their way in and every Command/Reply exchange.
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
	t.rec.frame(Frame{Kind: FrameEvent, At: t.rec.now(), Event: ev})
	t.inner.Publish(ev)
}

func (t *outerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *outerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *outerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *outerRec) Send(cmd bus.Command) bus.Reply {
	t.rec.define(cmd.Screen)
	t.rec.frame(Frame{Kind: FrameCommand, At: t.rec.now(), Cmd: cmd, Coord: t.rec.coordinating})
	t.rec.depth++
	rep := t.inner.Send(cmd)
	t.rec.depth--
	// Effect frames written during the exchange (screen definitions, leases)
	// sit between the command and its reply; replay consumes them in place.
	t.rec.frame(Frame{Kind: FrameReply, At: t.rec.now(), Reply: rep})
	return rep
}

type innerRec struct {
	rec   *Recorder
	inner bus.Transport
}

func (t *innerRec) Publish(ev trace.Event) {
	t.rec.define(ev.From, ev.To)
	t.rec.frame(Frame{Kind: FrameDelivered, At: t.rec.now(), Event: ev})
	t.inner.Publish(ev)
}

func (t *innerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *innerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *innerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *innerRec) Send(cmd bus.Command) bus.Reply {
	if t.rec.depth > 0 {
		// A command traversing the stack; Outer already recorded the
		// exchange.
		return t.inner.Send(cmd)
	}
	// A fate injection from the fault plan, entering below the coordinator.
	t.rec.frame(Frame{Kind: FrameFate, At: t.rec.now(), Cmd: cmd})
	return t.inner.Send(cmd)
}
