// Package wire serialises the coordination protocol of internal/bus: every
// trace.Event travelling up and every Command/Reply pair travelling down is
// encoded with a length-prefixed binary codec into a run's full
// bidirectional message log — the wire log. A Recorder captures it over the
// in-process transport and export.ReplayWireLog re-drives it byte-for-byte:
// the message log, not the process that produced it, is the
// reproducibility contract (extending the trace.Log.Replay / tracetool
// decisions idiom to the whole coordination protocol), and replaying it is
// the proof that the protocol survives serialisation.
//
// Determinism: the codec has no maps, no wall clock and no randomness; the
// bytes of a frame are a pure function of its fields, so two identical runs
// produce byte-identical wire logs and the CI can diff them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// FrameKind tags one frame of the recorded wire log. Event, Command and
// Reply frames are the protocol proper; the remaining kinds record the
// nondeterministic inputs and boundary effects a replay needs to re-drive a
// run without the farm, the tools or the fault plan.
type FrameKind byte

// Frame kinds.
const (
	// FrameHeader opens a wire log: the run's identity and resolved config.
	FrameHeader FrameKind = iota + 1
	// FrameScreen defines one abstract screen (signature + exemplar
	// hierarchy) on first sight, before any frame references it.
	FrameScreen
	// FrameEvent is one trace event as published at the instance boundary,
	// before any fault decoration ("ground truth").
	FrameEvent
	// FrameDelivered is one trace event as delivered to the coordinator
	// side, after drops and delays.
	FrameDelivered
	// FrameCommand is one command sent to the executor, by the coordinator
	// or by the runner itself (see Frame.Coord).
	FrameCommand
	// FrameReply is the executor's answer to the preceding FrameCommand.
	FrameReply
	// FrameFate is an injected Kill/Hang command fired by the fault plan
	// (it enters the transport below the coordinator, so it is not part of
	// a Command/Reply exchange).
	FrameFate
	// FrameLease records one instance boot: its ID and the initial launch
	// event, which the driver emits before any listener subscribes.
	FrameLease
	// FrameTick records one strategy tick (the coordinator's health
	// monitor and allocation-retry cadence).
	FrameTick
	// FrameSample records one timeline sample point.
	FrameSample
	// FrameInstance is the end-of-run summary of one instance lease.
	FrameInstance
	// FrameRunEnd closes a wire log with the run's totals.
	FrameRunEnd
)

func (k FrameKind) String() string {
	switch k {
	case FrameHeader:
		return "header"
	case FrameScreen:
		return "screen"
	case FrameEvent:
		return "event"
	case FrameDelivered:
		return "delivered"
	case FrameCommand:
		return "command"
	case FrameReply:
		return "reply"
	case FrameFate:
		return "fate"
	case FrameLease:
		return "lease"
	case FrameTick:
		return "tick"
	case FrameSample:
		return "sample"
	case FrameInstance:
		return "instance"
	case FrameRunEnd:
		return "run-end"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// logMagic opens every wire-log file; logVersion is the codec revision.
// Version 2 added the scenario hash to the header frame; version 3 added
// the origin flag to command frames.
const (
	logMagic   = "TAOPTWL"
	logVersion = 3
)

// maxFrameSize bounds one frame's payload; anything larger marks a corrupt
// or truncated stream rather than a legitimate frame.
const maxFrameSize = 1 << 26

// Header is the run identity a wire log opens with: enough to rebuild the
// coordinator (and only the coordinator — tool decisions are replayed from
// the recorded events, never re-run).
type Header struct {
	App     string
	Tool    string
	Setting string
	Seed    int64
	// Instances is the configured d_max; MaxDevices is the farm's actual
	// concurrency cap (they differ for single-long runs).
	Instances  int
	MaxDevices int

	DurationNS      int64
	MachineBudgetNS int64
	SampleEveryNS   int64

	// CoreOverride marks a run whose coordinator used a caller-supplied
	// core.Config; such logs can be dumped and diffed but not replayed (the
	// override is not serialised).
	CoreOverride bool
	// Telemetry marks a run that collected a telemetry bundle. Replay
	// reproduces the decision log but not the metrics registry, so the
	// replayed export of such a run omits the telemetry block.
	Telemetry bool
	// FaultsEnabled marks a chaos run (the export carries a transport block).
	FaultsEnabled bool
	// ScenarioHash is the canonical hash of the scenario document that
	// defined the run's app (log version 2); empty for apps built in code.
	ScenarioHash string
}

// Sample is one recorded timeline point (raw fields, so the wire layer does
// not depend on the metrics package).
type Sample struct {
	WallNS    int64
	MachineNS int64
	Covered   int
	Crashes   int
	AJS       float64
}

// CrashInfo is one recorded crash of an instance summary.
type CrashInfo struct {
	Signature string
	AtNS      int64
	Frames    []string
}

// Summary is the end-of-run record of one instance lease.
type Summary struct {
	ID          int
	AllocatedNS int64
	ReleasedNS  int64
	Failed      bool
	Coverage    int
	Crashes     []CrashInfo
}

// RunEnd closes a wire log with the run's totals and the transport's final
// delivery accounting.
type RunEnd struct {
	WallNS          int64
	MachineNS       int64
	Coverage        int
	UniqueCrashes   int
	FailedInstances int
	OrphansPending  int
	Stats           bus.Stats
}

// Frame is one decoded wire-log entry. Kind selects which of the payload
// fields are meaningful; At is the virtual-clock instant the frame was
// recorded.
type Frame struct {
	Kind FrameKind
	At   sim.Duration

	Header   Header       // FrameHeader
	Sig      ui.Signature // FrameScreen
	Screen   *ui.Screen   // FrameScreen
	Event    trace.Event  // FrameEvent, FrameDelivered, FrameLease (launch)
	Cmd      bus.Command  // FrameCommand, FrameFate
	Reply    bus.Reply    // FrameReply
	Instance int          // FrameLease, FrameInstance
	Sample   Sample       // FrameSample
	Summary  Summary      // FrameInstance
	End      RunEnd       // FrameRunEnd

	// Coord marks a FrameCommand the coordinator sent, as opposed to one the
	// runner sent on its own (baseline allocations, end-of-run releases).
	// Replay requires the replayed coordinator to send exactly these.
	Coord bool
}

// String renders the frame as one stable human-readable line (the format
// tracetool wirelog dumps).
func (f Frame) String() string {
	at := float64(f.At) / 1e9
	switch f.Kind {
	case FrameHeader:
		h := f.Header
		return fmt.Sprintf("%12.3f header   app=%q tool=%s setting=%s seed=%d instances=%d devices=%d faults=%v telemetry=%v override=%v",
			at, h.App, h.Tool, h.Setting, h.Seed, h.Instances, h.MaxDevices, h.FaultsEnabled, h.Telemetry, h.CoreOverride)
	case FrameScreen:
		return fmt.Sprintf("%12.3f screen   %v activity=%s nodes=%d", at, f.Sig, f.Screen.Activity, f.Screen.Root.Size())
	case FrameEvent, FrameDelivered:
		ev := f.Event
		return fmt.Sprintf("%12.3f %-8s inst=%d %s %v->%v crashed=%v enforced=%v",
			at, f.Kind, ev.Instance, ev.Action.Kind, ev.From, ev.To, ev.Crashed, ev.Enforced)
	case FrameCommand, FrameFate:
		c := f.Cmd
		origin := ""
		if f.Coord {
			origin = " by=coordinator"
		}
		return fmt.Sprintf("%12.3f %-8s %s inst=%d screen=%v widget=%q%s", at, f.Kind, c.Kind, c.Instance, c.Screen, c.Widget, origin)
	case FrameReply:
		errText := ""
		if f.Reply.Err != nil {
			errText = " err=" + f.Reply.Err.Error()
		}
		return fmt.Sprintf("%12.3f reply    inst=%d%s", at, f.Reply.Instance, errText)
	case FrameLease:
		return fmt.Sprintf("%12.3f lease    inst=%d launch->%v activity=%s", at, f.Instance, f.Event.To, f.Event.Activity)
	case FrameTick:
		return fmt.Sprintf("%12.3f tick", at)
	case FrameSample:
		return fmt.Sprintf("%12.3f sample   covered=%d crashes=%d machine=%.3f", at, f.Sample.Covered, f.Sample.Crashes, float64(f.Sample.MachineNS)/1e9)
	case FrameInstance:
		s := f.Summary
		return fmt.Sprintf("%12.3f instance inst=%d alloc=%.3f release=%.3f failed=%v coverage=%d crashes=%d",
			at, s.ID, float64(s.AllocatedNS)/1e9, float64(s.ReleasedNS)/1e9, s.Failed, s.Coverage, len(s.Crashes))
	case FrameRunEnd:
		e := f.End
		return fmt.Sprintf("%12.3f run-end  coverage=%d crashes=%d failed=%d orphans=%d published=%d delivered=%d commands=%d",
			at, e.Coverage, e.UniqueCrashes, e.FailedInstances, e.OrphansPending, e.Stats.Published, e.Stats.Delivered, e.Stats.Commands)
	default:
		return fmt.Sprintf("%12.3f %s", at, f.Kind)
	}
}

// --- reply error classes --------------------------------------------------

// Reply errors cross the wire as a sentinel class plus the full message, so
// the coordinator's two error probes — errors.Is against the retry sentinels
// and err.Error() for the decision log — behave identically whether a reply
// came through the live transport or a replayed log.
const (
	errClassNone byte = iota
	errClassBusy
	errClassTimeout
	errClassNotBound
	errClassOther
)

func errClassOf(err error) byte {
	switch {
	case err == nil:
		return errClassNone
	case errors.Is(err, bus.ErrFarmBusy):
		return errClassBusy
	case errors.Is(err, bus.ErrTimeout):
		return errClassTimeout
	case errors.Is(err, bus.ErrNotBound):
		return errClassNotBound
	default:
		return errClassOther
	}
}

// wireError is a decoded reply error: the original message with the
// sentinel chain restored.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func decodeErr(class byte, msg string) error {
	switch class {
	case errClassNone:
		return nil
	case errClassBusy:
		return &wireError{msg: msg, sentinel: bus.ErrFarmBusy}
	case errClassTimeout:
		return &wireError{msg: msg, sentinel: bus.ErrTimeout}
	case errClassNotBound:
		return &wireError{msg: msg, sentinel: bus.ErrNotBound}
	default:
		return errors.New(msg)
	}
}

// --- primitive encoder/decoder -------------------------------------------

type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) boolb(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *enc) varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) sig(s ui.Signature) {
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(s))
}
func (e *enc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or corrupt %s at offset %d", what, d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) boolb() bool { return d.u8() != 0 }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) sig() ui.Signature {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("signature")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return ui.Signature(v)
}

func (d *dec) f64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// --- payload codecs -------------------------------------------------------

func (e *enc) event(ev trace.Event) {
	e.varint(int64(ev.Instance))
	e.varint(int64(ev.At))
	e.u8(byte(ev.Action.Kind))
	e.str(string(ev.Action.Widget))
	e.sig(ev.From)
	e.sig(ev.To)
	e.str(ev.Activity)
	var flags byte
	if ev.Crashed {
		flags |= 1
	}
	if ev.Enforced {
		flags |= 2
	}
	e.u8(flags)
}

func (d *dec) event() trace.Event {
	ev := trace.Event{
		Instance: int(d.varint()),
		At:       sim.Duration(d.varint()),
		Action:   trace.Action{Kind: trace.ActionKind(d.u8())},
	}
	ev.Action.Widget = ui.WidgetPath(d.str())
	ev.From = d.sig()
	ev.To = d.sig()
	ev.Activity = d.str()
	flags := d.u8()
	ev.Crashed = flags&1 != 0
	ev.Enforced = flags&2 != 0
	return ev
}

func (e *enc) command(c bus.Command) {
	e.u8(byte(c.Kind))
	e.varint(int64(c.Instance))
	e.sig(c.Screen)
	e.str(string(c.Widget))
}

func (d *dec) command() bus.Command {
	return bus.Command{
		Kind:     bus.CommandKind(d.u8()),
		Instance: int(d.varint()),
		Screen:   d.sig(),
		Widget:   ui.WidgetPath(d.str()),
	}
}

func (e *enc) reply(r bus.Reply) {
	e.varint(int64(r.Instance))
	class := errClassOf(r.Err)
	e.u8(class)
	if class != errClassNone {
		e.str(r.Err.Error())
	}
}

func (d *dec) reply() bus.Reply {
	r := bus.Reply{Instance: int(d.varint())}
	class := d.u8()
	if class != errClassNone {
		r.Err = decodeErr(class, d.str())
	}
	return r
}

func (e *enc) node(n *ui.Node) {
	if n == nil {
		e.boolb(false)
		return
	}
	e.boolb(true)
	e.str(n.Class)
	e.str(n.ResourceID)
	e.str(n.Text)
	var flags byte
	if n.Enabled {
		flags |= 1
	}
	if n.Clickable {
		flags |= 2
	}
	e.u8(flags)
	e.uvarint(uint64(len(n.Children)))
	for _, ch := range n.Children {
		e.node(ch)
	}
}

func (d *dec) node() *ui.Node {
	if !d.boolb() || d.err != nil {
		return nil
	}
	n := &ui.Node{Class: d.str(), ResourceID: d.str(), Text: d.str()}
	flags := d.u8()
	n.Enabled = flags&1 != 0
	n.Clickable = flags&2 != 0
	count := d.uvarint()
	if d.err != nil || count > uint64(len(d.b)-d.off) {
		d.fail("node children")
		return n
	}
	for i := uint64(0); i < count; i++ {
		n.Children = append(n.Children, d.node())
		if d.err != nil {
			break
		}
	}
	return n
}

func (e *enc) busStats(s bus.Stats) {
	e.varint(int64(s.Published))
	e.varint(int64(s.Delivered))
	e.varint(int64(s.Commands))
	e.uvarint(uint64(len(s.ByKind)))
	for _, n := range s.ByKind {
		e.varint(int64(n))
	}
	e.varint(int64(s.CommandFailures))
	e.varint(int64(s.Dropped))
	e.varint(int64(s.Delayed))
	e.varint(int64(s.Deaths))
	e.varint(int64(s.Hangs))
	e.varint(int64(s.AllocFailures))
	e.varint(int64(s.LostCommands))
}

func (d *dec) busStats() bus.Stats {
	var s bus.Stats
	s.Published = int(d.varint())
	s.Delivered = int(d.varint())
	s.Commands = int(d.varint())
	kinds := d.uvarint()
	for i := uint64(0); i < kinds && d.err == nil; i++ {
		n := int(d.varint())
		if i < uint64(len(s.ByKind)) {
			s.ByKind[i] = n
		}
	}
	s.CommandFailures = int(d.varint())
	s.Dropped = int(d.varint())
	s.Delayed = int(d.varint())
	s.Deaths = int(d.varint())
	s.Hangs = int(d.varint())
	s.AllocFailures = int(d.varint())
	s.LostCommands = int(d.varint())
	return s
}

// --- frame codec ----------------------------------------------------------

// marshalFrame encodes one frame payload (kind byte, timestamp, body) —
// without the length prefix, which the stream writer owns.
func marshalFrame(f Frame) ([]byte, error) {
	e := &enc{}
	e.u8(byte(f.Kind))
	e.varint(int64(f.At))
	switch f.Kind {
	case FrameHeader:
		h := f.Header
		e.str(h.App)
		e.str(h.Tool)
		e.str(h.Setting)
		e.varint(h.Seed)
		e.varint(int64(h.Instances))
		e.varint(int64(h.MaxDevices))
		e.varint(h.DurationNS)
		e.varint(h.MachineBudgetNS)
		e.varint(h.SampleEveryNS)
		e.str(h.ScenarioHash)
		var flags byte
		if h.CoreOverride {
			flags |= 1
		}
		if h.Telemetry {
			flags |= 2
		}
		if h.FaultsEnabled {
			flags |= 4
		}
		e.u8(flags)
	case FrameScreen:
		e.sig(f.Sig)
		e.str(f.Screen.Activity)
		e.node(f.Screen.Root)
	case FrameEvent, FrameDelivered:
		e.event(f.Event)
	case FrameCommand:
		e.command(f.Cmd)
		e.boolb(f.Coord)
	case FrameFate:
		e.command(f.Cmd)
	case FrameReply:
		e.reply(f.Reply)
	case FrameLease:
		e.varint(int64(f.Instance))
		e.event(f.Event)
	case FrameTick:
		// timestamp only
	case FrameSample:
		e.varint(f.Sample.WallNS)
		e.varint(f.Sample.MachineNS)
		e.varint(int64(f.Sample.Covered))
		e.varint(int64(f.Sample.Crashes))
		e.f64(f.Sample.AJS)
	case FrameInstance:
		s := f.Summary
		e.varint(int64(s.ID))
		e.varint(s.AllocatedNS)
		e.varint(s.ReleasedNS)
		e.boolb(s.Failed)
		e.varint(int64(s.Coverage))
		e.uvarint(uint64(len(s.Crashes)))
		for _, cr := range s.Crashes {
			e.str(cr.Signature)
			e.varint(cr.AtNS)
			e.uvarint(uint64(len(cr.Frames)))
			for _, fr := range cr.Frames {
				e.str(fr)
			}
		}
	case FrameRunEnd:
		end := f.End
		e.varint(end.WallNS)
		e.varint(end.MachineNS)
		e.varint(int64(end.Coverage))
		e.varint(int64(end.UniqueCrashes))
		e.varint(int64(end.FailedInstances))
		e.varint(int64(end.OrphansPending))
		e.busStats(end.Stats)
	default:
		return nil, fmt.Errorf("wire: cannot marshal frame kind %v", f.Kind)
	}
	return e.b, nil
}

// decodeFrame decodes one frame payload produced by marshalFrame.
func decodeFrame(payload []byte) (Frame, error) {
	d := &dec{b: payload}
	f := Frame{Kind: FrameKind(d.u8()), At: sim.Duration(d.varint())}
	switch f.Kind {
	case FrameHeader:
		h := Header{
			App:             d.str(),
			Tool:            d.str(),
			Setting:         d.str(),
			Seed:            d.varint(),
			Instances:       int(d.varint()),
			MaxDevices:      int(d.varint()),
			DurationNS:      d.varint(),
			MachineBudgetNS: d.varint(),
			SampleEveryNS:   d.varint(),
			ScenarioHash:    d.str(),
		}
		flags := d.u8()
		h.CoreOverride = flags&1 != 0
		h.Telemetry = flags&2 != 0
		h.FaultsEnabled = flags&4 != 0
		f.Header = h
	case FrameScreen:
		f.Sig = d.sig()
		f.Screen = &ui.Screen{Activity: d.str(), Root: d.node()}
	case FrameEvent, FrameDelivered:
		f.Event = d.event()
	case FrameCommand:
		f.Cmd = d.command()
		f.Coord = d.boolb()
	case FrameFate:
		f.Cmd = d.command()
	case FrameReply:
		f.Reply = d.reply()
	case FrameLease:
		f.Instance = int(d.varint())
		f.Event = d.event()
	case FrameTick:
	case FrameSample:
		f.Sample = Sample{
			WallNS:    d.varint(),
			MachineNS: d.varint(),
			Covered:   int(d.varint()),
			Crashes:   int(d.varint()),
			AJS:       d.f64(),
		}
	case FrameInstance:
		s := Summary{
			ID:          int(d.varint()),
			AllocatedNS: d.varint(),
			ReleasedNS:  d.varint(),
			Failed:      d.boolb(),
			Coverage:    int(d.varint()),
		}
		crashes := d.uvarint()
		for i := uint64(0); i < crashes && d.err == nil; i++ {
			cr := CrashInfo{Signature: d.str(), AtNS: d.varint()}
			frames := d.uvarint()
			for j := uint64(0); j < frames && d.err == nil; j++ {
				cr.Frames = append(cr.Frames, d.str())
			}
			s.Crashes = append(s.Crashes, cr)
		}
		f.Summary = s
	case FrameRunEnd:
		f.End = RunEnd{
			WallNS:          d.varint(),
			MachineNS:       d.varint(),
			Coverage:        int(d.varint()),
			UniqueCrashes:   int(d.varint()),
			FailedInstances: int(d.varint()),
			OrphansPending:  int(d.varint()),
			Stats:           d.busStats(),
		}
	default:
		return Frame{}, fmt.Errorf("wire: unknown frame kind %d", byte(f.Kind))
	}
	if d.err != nil {
		return Frame{}, d.err
	}
	if d.off != len(payload) {
		return Frame{}, fmt.Errorf("wire: %d trailing bytes after %v frame", len(payload)-d.off, f.Kind)
	}
	return f, nil
}

// appendFrame appends the length-prefixed encoding of f to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	payload, err := marshalFrame(f)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// --- wire log reading -----------------------------------------------------

// Log is a decoded wire log: the opening header and every subsequent frame
// in record order.
type Log struct {
	Header Header
	Frames []Frame
}

// ReadLog decodes a wire log produced by a Recorder. It validates the magic,
// the codec version, and that the stream opens with a header frame.
func ReadLog(r io.Reader) (*Log, error) {
	magic := make([]byte, len(logMagic)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("wire: reading log magic: %w", err)
	}
	if string(magic[:len(logMagic)]) != logMagic {
		return nil, fmt.Errorf("wire: not a wire log (bad magic %q)", magic[:len(logMagic)])
	}
	if magic[len(logMagic)] != logVersion {
		return nil, fmt.Errorf("wire: unsupported wire-log version %d (want %d)", magic[len(logMagic)], logVersion)
	}

	log := &Log{}
	lenBuf := make([]byte, 4)
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, lenBuf); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("wire: reading frame %d length: %w", i, err)
		}
		n := binary.LittleEndian.Uint32(lenBuf)
		if n > maxFrameSize {
			return nil, fmt.Errorf("wire: frame %d claims %d bytes (corrupt log)", i, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("wire: reading frame %d payload: %w", i, err)
		}
		f, err := decodeFrame(payload)
		if err != nil {
			return nil, fmt.Errorf("wire: frame %d: %w", i, err)
		}
		if i == 0 {
			if f.Kind != FrameHeader {
				return nil, fmt.Errorf("wire: log opens with %v, want header", f.Kind)
			}
			log.Header = f.Header
			continue
		}
		log.Frames = append(log.Frames, f)
	}
	return log, nil
}
