// Package bin is the compact binary trace+telemetry format: the streaming,
// storage-efficient twin of the JSON run export. A campaign run writes its
// unbounded data — UI transition events, timeline samples, coordinator
// decisions — as varint-encoded records in fixed-size chunks *while the run
// progresses*, never whole-run buffered, and closes the stream with the
// bounded end-of-run summaries (instances, subspaces, screens, transport
// accounting, metrics, totals). The JSON export (export format v5) stays the
// human-readable debug view; this format is what corpus-scale analytics
// (cmd/tracetool corpus) stream over thousands of runs in one pass.
//
// # Layout
//
//	"TAOPTTB" magic (7 bytes) ++ version byte
//	chunk*   where chunk = u32-LE payload length ++ payload
//	payload  = record*  (records never straddle a chunk boundary)
//	record   = kind byte ++ varint/uvarint/f64 fields (per-kind)
//
// The writer flushes a chunk as soon as the pending payload reaches
// ChunkSize, so peak writer memory is O(ChunkSize + intern tables) —
// independent of run length (the intern tables grow with *distinct* strings
// and screen signatures, which are bounded by the app, not the run).
//
// # Compactness
//
// Three tricks keep the stream small relative to the JSON view:
//
//   - Interning: strings (activities, widget paths, decision kinds, crash
//     signatures, metric names) and 8-byte screen signatures are emitted
//     once as definition records and referenced by small varint IDs after.
//   - Delta timestamps: event times are deltas against the same instance's
//     previous event, sample times against the previous sample, decision
//     times against the previous decision — all small varints.
//   - Field packing: action kind and the crashed/enforced flags share one
//     byte; optional decision fields sit behind a presence bitmap.
//
// # Versioning rules
//
// The version byte after the magic is the binary codec revision. Readers
// reject versions they do not know; any change to record layouts, the
// interning scheme or the chunk framing bumps it. The header record carries
// the JSON export schema version the stream mirrors (ExportVersion), so a
// decoded stream rebuilds a Run of the era that wrote it. DESIGN.md §12
// documents the contract.
//
// # Protocol records
//
// A replayable stream (NewReplayWriter) also carries the coordination
// protocol strict replay re-drives: screen trees, delivered events, command
// and reply exchanges, fates, leases, ticks and the run-end transport
// accounting. Its replay record follows the header directly, and a reader
// rejects protocol records in a stream that did not announce them there.
// Protocol kinds are additive: a stream without them is byte-identical to
// one written before they existed, so they need no version bump.
package bin

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

const (
	// Magic opens every binary trace file.
	Magic = "TAOPTTB"
	// Version is the binary codec revision.
	Version = 1
	// ExportVersion is the JSON export schema this codec revision mirrors
	// losslessly (export.FormatVersion is defined as it); writers stamp it
	// into the header and readers hand it back so a rebuilt Run names its
	// schema era.
	ExportVersion = 5
	// ChunkSize is the flush threshold: a chunk is written out as soon as
	// the pending payload reaches this many bytes. One oversized record
	// (a long metric series, say) may exceed it; the chunk then holds that
	// record alone.
	ChunkSize = 32 << 10
	// maxChunkSize bounds a chunk claimed by the length prefix; anything
	// larger marks a corrupt or truncated stream, not a legitimate chunk.
	maxChunkSize = 1 << 26
)

// Kind tags one record of the stream.
type Kind byte

// Record kinds. KindStrDef and KindSigDef are interning records the Reader
// consumes internally; Next never surfaces them.
const (
	// KindHeader opens the stream: run identity, scenario hash, schema era.
	KindHeader Kind = iota + 1
	// KindStrDef defines the next string-table entry (IDs are sequential).
	KindStrDef
	// KindSigDef defines the next signature-table entry.
	KindSigDef
	// KindEvent is one UI transition event of one instance.
	KindEvent
	// KindSample is one timeline sample point.
	KindSample
	// KindDecision is one coordinator decision-log entry.
	KindDecision
	// KindInstance is the end-of-run summary of one instance lease (with
	// its crashes), in allocation order.
	KindInstance
	// KindSubspace is one accepted UI subspace (members sorted ascending).
	KindSubspace
	// KindScreen is one distinct abstract screen (first-seen order).
	KindScreen
	// KindTransport is the chaos run's transport accounting block.
	KindTransport
	// KindMetric is one metrics-registry snapshot entry (sorted order).
	KindMetric
	// KindEnd closes the stream with the run totals.
	KindEnd

	// Protocol kinds (replayable streams only; see Protocol).

	// KindReplay announces a replayable stream with the config replay
	// needs; it is the first record after the header.
	KindReplay
	// KindTree defines one abstract screen's full node tree on first
	// reference.
	KindTree
	// KindDelivered is one trace event as delivered to the coordinator,
	// after drops and delays.
	KindDelivered
	// KindCommand is one command sent to the executor, by the coordinator
	// or by the runner (Command.Coord).
	KindCommand
	// KindFate is a Kill/Hang injected by the fault plan below the
	// coordinator.
	KindFate
	// KindReply is the executor's answer to the preceding KindCommand.
	KindReply
	// KindLease records one instance boot; its launch event follows as a
	// KindEvent.
	KindLease
	// KindTick records one strategy tick.
	KindTick
	// KindAccounting is the run-end transport accounting replay reconciles
	// against (the KindTransport layout, written on every replayable run).
	KindAccounting
)

// Protocol reports whether k is a protocol kind, which only replayable
// streams carry and analytics readers skip.
func (k Kind) Protocol() bool { return k >= KindReplay }

func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindStrDef:
		return "strdef"
	case KindSigDef:
		return "sigdef"
	case KindEvent:
		return "event"
	case KindSample:
		return "sample"
	case KindDecision:
		return "decision"
	case KindInstance:
		return "instance"
	case KindSubspace:
		return "subspace"
	case KindScreen:
		return "screen"
	case KindTransport:
		return "transport"
	case KindMetric:
		return "metric"
	case KindEnd:
		return "end"
	case KindReplay:
		return "replay"
	case KindTree:
		return "tree"
	case KindDelivered:
		return "delivered"
	case KindCommand:
		return "command"
	case KindFate:
		return "fate"
	case KindReply:
		return "reply"
	case KindLease:
		return "lease"
	case KindTick:
		return "tick"
	case KindAccounting:
		return "accounting"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Header is the run identity the stream opens with.
type Header struct {
	App     string
	Tool    string
	Setting string
	Seed    int64
	// ScenarioHash is the canonical content hash of the scenario document
	// that defined the run's app; empty for apps built in code.
	ScenarioHash string
	// ExportVersion is the JSON export schema era the stream mirrors.
	ExportVersion int
	// Telemetry marks a run that carried a telemetry block (decision log +
	// metrics); it disambiguates "telemetry on but empty" from "off".
	Telemetry bool
	// Faults marks a chaos run (a transport record follows at the end).
	Faults bool
}

// The end-of-run record types below double as the JSON export's sections
// (export format v5): their tags are the export's field names, so the
// export holds them as they are and never copies a field.

// Sample is one timeline point (raw fields; the bin layer depends on no
// metrics types).
type Sample struct {
	WallNS    int64   `json:"wall_ns"`
	MachineNS int64   `json:"machine_ns"`
	Covered   int     `json:"covered"`
	Crashes   int     `json:"crashes"`
	AJS       float64 `json:"ajs,omitempty"`
}

// Crash is one recorded crash of an instance summary.
type Crash struct {
	Signature string   `json:"signature"`
	AtNS      int64    `json:"at_ns"`
	Frames    []string `json:"frames"`
}

// InstanceSummary is the end-of-run record of one instance lease.
type InstanceSummary struct {
	ID          int   `json:"id"`
	AllocatedNS int64 `json:"allocated_ns"`
	ReleasedNS  int64 `json:"released_ns"`
	Coverage    int   `json:"coverage"`
	// Failed marks a lease terminated by an injected fault rather than a
	// deliberate release.
	Failed  bool    `json:"failed,omitempty"`
	Crashes []Crash `json:"crashes,omitempty"`
}

// Subspace is one accepted UI subspace; Members must be sorted ascending
// (the canonical export order).
type Subspace struct {
	ID      int      `json:"id"`
	Entry   uint64   `json:"entry"`
	Members []uint64 `json:"members"`
	Owner   int      `json:"owner"`
	FoundNS int64    `json:"found_ns"`
}

// Screen is one distinct abstract screen digest.
type Screen struct {
	Sig      uint64 `json:"signature"`
	Activity string `json:"activity"`
	Nodes    int    `json:"nodes"`
}

// Transport is the chaos run's coordination-transport accounting: trace
// events published and delivered, commands carried, and the faults the
// decorated transport injected.
type Transport struct {
	Events    int `json:"events"`
	Delivered int `json:"delivered"`
	Commands  int `json:"commands"`
	// CommandFailures counts command attempts whose reply carried an error
	// (injected outages and losses, timeouts, guard rejections).
	CommandFailures int `json:"command_failures,omitempty"`
	Dropped         int `json:"dropped"`
	Delayed         int `json:"delayed"`
	Deaths          int `json:"deaths"`
	Hangs           int `json:"hangs"`
	AllocFailures   int `json:"alloc_failures"`
	LostCommands    int `json:"lost_commands,omitempty"`
	FailedInstances int `json:"failed_instances"`
	OrphansPending  int `json:"orphans_pending"`
	// CommandMix breaks Commands down per kind (nil: not recorded).
	CommandMix *CommandMix `json:"command_mix,omitempty"`
}

// CommandMix is the transport's per-kind command breakdown, its fields in
// bus.CommandKind order (the order they are encoded in). The injected
// Kill/Hang fates travel as commands too, so their counts appear here while
// Transport's Deaths/Hangs count the fault plan's draws.
type CommandMix struct {
	Allocate    int `json:"allocate"`
	Deallocate  int `json:"deallocate"`
	BlockWidget int `json:"block_widget"`
	BlockMember int `json:"block_member"`
	Kill        int `json:"kill"`
	Hang        int `json:"hang"`
}

// counts lists the mix's fields in encoding order.
func (m *CommandMix) counts() []*int {
	return []*int{&m.Allocate, &m.Deallocate, &m.BlockWidget, &m.BlockMember, &m.Kill, &m.Hang}
}

// End closes the stream with the run totals.
type End struct {
	WallNS        int64 `json:"wall_used_ns"`
	MachineNS     int64 `json:"machine_used_ns"`
	Coverage      int   `json:"coverage"`
	UniqueCrashes int   `json:"unique_crashes"`
}

// ReplayConfig is what a replayable stream records beyond the header: the
// run shape replay rebuilds the coordinator's environment from.
type ReplayConfig struct {
	// Instances is the configured d_max; MaxDevices is the farm's actual
	// concurrency cap (they differ for single-long runs).
	Instances       int
	MaxDevices      int
	DurationNS      int64
	MachineBudgetNS int64
	SampleEveryNS   int64
	// CoreOverride marks a run whose coordinator used a caller-supplied
	// core.Config, which is not recorded; such a stream cannot replay.
	CoreOverride bool
}

// Command is one recorded bus command. Kind is the bus.CommandKind ordinal
// (bin does not import bus).
type Command struct {
	Kind     byte
	Instance int
	Screen   uint64
	Widget   string
	// Coord marks a command the coordinator sent (KindCommand only).
	Coord bool
}

// Reply is one recorded bus reply. ErrClass 0 means no error; any other
// class names the error's sentinel family and Err carries its message.
type Reply struct {
	Instance int
	ErrClass byte
	Err      string
}

// Record is one decoded stream entry; Kind selects the meaningful payload
// field, and every other field is zero. The *Record Reader.Next returns is
// the Reader's own, decoded in place: it is valid until the next call to
// Next, so a caller that keeps a payload copies the field out.
type Record struct {
	Kind Kind

	Header    Header          // KindHeader
	Event     trace.Event     // KindEvent, KindDelivered (Instance set)
	Sample    Sample          // KindSample
	Decision  obs.Decision    // KindDecision
	Summary   InstanceSummary // KindInstance
	Subspace  Subspace        // KindSubspace
	Screen    Screen          // KindScreen; KindTree sets Sig only
	Transport Transport       // KindTransport, KindAccounting
	Metric    obs.Metric      // KindMetric
	End       End             // KindEnd

	// Protocol payloads a replay keeps past the next record (trees,
	// commands, replies, the replay config) sit behind pointers, each
	// freshly allocated per record.
	At      sim.Duration  // every protocol kind but KindReplay
	Replay  *ReplayConfig // KindReplay
	Tree    *ui.Screen    // KindTree
	Command *Command      // KindCommand, KindFate
	Reply   *Reply        // KindReply
	Lease   int           // KindLease: the instance ID
}

// Sink receives one run's records in stream order. *Writer encodes them;
// the export package's builder assembles them into a Run. The header is not
// a Sink record: it is handed over when the sink is created.
type Sink interface {
	Event(trace.Event)
	Sample(Sample)
	Decision(obs.Decision)
	Instance(InstanceSummary)
	Subspace(Subspace)
	Screen(Screen)
	Transport(Transport)
	Metric(obs.Metric)
	End(End)
}

var _ Sink = (*Writer)(nil)

// Writer streams records into the chunked binary form. All methods are
// error-latching: the first write failure sticks and every later call is a
// no-op; check Err (or Close) once at the end, exactly like the wire
// recorder. Writer memory is bounded by ChunkSize plus the intern tables.
type Writer struct {
	w   io.Writer
	buf []byte
	err error

	strIDs map[string]uint64
	sigIDs map[uint64]uint64

	lastEventAt map[int]int64
	lastWall    int64
	lastDecAt   int64

	// replayable admits protocol records, whose times are deltas against
	// the previous protocol record's.
	replayable  bool
	lastProtoAt int64
}

// NewWriter opens a binary trace stream on w: it writes the magic, the
// codec version and the header record. A zero h.ExportVersion is stamped as
// the current ExportVersion.
func NewWriter(w io.Writer, h Header) *Writer {
	bw := &Writer{
		w:           w,
		buf:         make([]byte, 0, ChunkSize+1024),
		strIDs:      make(map[string]uint64),
		sigIDs:      make(map[uint64]uint64),
		lastEventAt: make(map[int]int64),
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		bw.err = fmt.Errorf("bin: writing magic: %w", err)
		return bw
	}
	if _, err := w.Write([]byte{Version}); err != nil {
		bw.err = fmt.Errorf("bin: writing version: %w", err)
		return bw
	}
	if h.ExportVersion == 0 {
		h.ExportVersion = ExportVersion
	}
	bw.header(h)
	return bw
}

// NewReplayWriter opens a replayable stream: NewWriter, then the replay
// record announcing the protocol records to come.
func NewReplayWriter(w io.Writer, h Header, c ReplayConfig) *Writer {
	bw := NewWriter(w, h)
	if bw.err != nil {
		return bw
	}
	bw.replayable = true
	bw.u8(byte(KindReplay))
	for _, v := range []int64{int64(c.Instances), int64(c.MaxDevices), c.DurationNS, c.MachineBudgetNS, c.SampleEveryNS} {
		bw.varint(v)
	}
	bw.boolb(c.CoreOverride)
	return bw
}

// Err returns the first error the writer hit, or nil.
func (w *Writer) Err() error { return w.err }

// Close flushes the pending chunk and returns the first error. It does not
// close the underlying writer, which the caller owns.
func (w *Writer) Close() error {
	w.flush()
	return w.err
}

// flush writes the pending payload as one chunk.
func (w *Writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(w.buf)))
	if _, err := w.w.Write(lenBuf[:]); err != nil {
		w.err = fmt.Errorf("bin: writing chunk length: %w", err)
		return
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("bin: writing chunk: %w", err)
		return
	}
	w.buf = w.buf[:0]
}

// maybeFlush flushes once the pending payload reaches the chunk threshold.
// It is called only at record boundaries, so records never straddle chunks.
func (w *Writer) maybeFlush() {
	if len(w.buf) >= ChunkSize {
		w.flush()
	}
}

// --- primitive appends ----------------------------------------------------

func (w *Writer) u8(v byte)        { w.buf = append(w.buf, v) }
func (w *Writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *Writer) rawstr(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *Writer) boolb(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// strRef interns s, emitting its definition record on first sight, and
// returns its table ID.
func (w *Writer) strRef(s string) uint64 {
	if id, ok := w.strIDs[s]; ok {
		return id
	}
	id := uint64(len(w.strIDs))
	w.strIDs[s] = id
	w.u8(byte(KindStrDef))
	w.rawstr(s)
	w.maybeFlush()
	return id
}

// sigRef interns the screen signature, emitting its definition record on
// first sight, and returns its table ID.
func (w *Writer) sigRef(sig uint64) uint64 {
	if id, ok := w.sigIDs[sig]; ok {
		return id
	}
	id := uint64(len(w.sigIDs))
	w.sigIDs[sig] = id
	w.u8(byte(KindSigDef))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, sig)
	w.maybeFlush()
	return id
}

// --- record writers -------------------------------------------------------

func (w *Writer) header(h Header) {
	if w.err != nil {
		return
	}
	w.u8(byte(KindHeader))
	w.rawstr(h.App)
	w.rawstr(h.Tool)
	w.rawstr(h.Setting)
	w.varint(h.Seed)
	w.rawstr(h.ScenarioHash)
	w.varint(int64(h.ExportVersion))
	var flags byte
	if h.Telemetry {
		flags |= 1
	}
	if h.Faults {
		flags |= 2
	}
	w.u8(flags)
	w.maybeFlush()
}

// Event appends one UI transition event (ev.Instance names its instance).
//
//lint:hotpath
func (w *Writer) Event(ev trace.Event) {
	if w.err != nil {
		return
	}
	w.event(KindEvent, 0, &ev, w.lastEventAt[ev.Instance])
	w.lastEventAt[ev.Instance] = int64(ev.At)
}

// event writes one event record; its time is a delta against base. A
// delivered event is a protocol record, stamped with its delivery time at.
//
//lint:hotpath
func (w *Writer) event(k Kind, at sim.Duration, ev *trace.Event, base int64) {
	widget := w.strRef(string(ev.Action.Widget))
	from := w.sigRef(uint64(ev.From))
	to := w.sigRef(uint64(ev.To))
	activity := w.strRef(ev.Activity)
	if k == KindDelivered {
		w.stamp(k, at)
	} else {
		w.u8(byte(k))
	}
	w.uvarint(uint64(ev.Instance))
	w.varint(int64(ev.At) - base)
	packed := byte(ev.Action.Kind) & 0x3f
	if ev.Crashed {
		packed |= 0x40
	}
	if ev.Enforced {
		packed |= 0x80
	}
	w.u8(packed)
	w.uvarint(widget)
	w.uvarint(from)
	w.uvarint(to)
	w.uvarint(activity)
	w.maybeFlush()
}

// Sample appends one timeline sample point.
//
//lint:hotpath
func (w *Writer) Sample(s Sample) {
	if w.err != nil {
		return
	}
	w.u8(byte(KindSample))
	w.varint(s.WallNS - w.lastWall)
	w.lastWall = s.WallNS
	w.varint(s.MachineNS)
	w.varint(int64(s.Covered))
	w.varint(int64(s.Crashes))
	if s.AJS != 0 {
		w.u8(1)
		w.f64(s.AJS)
	} else {
		w.u8(0)
	}
	w.maybeFlush()
}

// Decision presence bits (optional fields behind a bitmap; absent fields
// decode as their zero value, exactly matching the JSON view's omitempty).
const (
	decHasEntry = 1 << iota
	decHasMembers
	decHasScore
	decHasOverlap
	decHasPurity
	decHasReason
	decHasBackoff
	decHasIdle
)

// Decision appends one coordinator decision-log entry.
//
//lint:hotpath
func (w *Writer) Decision(d obs.Decision) {
	if w.err != nil {
		return
	}
	kind := w.strRef(d.Kind)
	var entry, reason uint64
	if d.Entry != 0 {
		entry = w.sigRef(d.Entry)
	}
	if d.Reason != "" {
		reason = w.strRef(d.Reason)
	}
	w.u8(byte(KindDecision))
	w.varint(d.AtNS - w.lastDecAt)
	w.lastDecAt = d.AtNS
	w.uvarint(kind)
	w.varint(int64(d.Instance))
	w.varint(int64(d.Sub))
	var flags byte
	if d.Entry != 0 {
		flags |= decHasEntry
	}
	if d.Members != 0 {
		flags |= decHasMembers
	}
	if d.Score != 0 {
		flags |= decHasScore
	}
	if d.Overlap != 0 {
		flags |= decHasOverlap
	}
	if d.Purity != 0 {
		flags |= decHasPurity
	}
	if d.Reason != "" {
		flags |= decHasReason
	}
	if d.BackoffNS != 0 {
		flags |= decHasBackoff
	}
	if d.IdleNS != 0 {
		flags |= decHasIdle
	}
	w.u8(flags)
	if flags&decHasEntry != 0 {
		w.uvarint(entry)
	}
	if flags&decHasMembers != 0 {
		w.varint(int64(d.Members))
	}
	if flags&decHasScore != 0 {
		w.f64(d.Score)
	}
	if flags&decHasOverlap != 0 {
		w.f64(d.Overlap)
	}
	if flags&decHasPurity != 0 {
		w.f64(d.Purity)
	}
	if flags&decHasReason != 0 {
		w.uvarint(reason)
	}
	if flags&decHasBackoff != 0 {
		w.varint(d.BackoffNS)
	}
	if flags&decHasIdle != 0 {
		w.varint(d.IdleNS)
	}
	w.maybeFlush()
}

// Instance appends one end-of-run instance summary.
func (w *Writer) Instance(s InstanceSummary) {
	if w.err != nil {
		return
	}
	sigs := make([]uint64, len(s.Crashes))
	frameRefs := make([][]uint64, len(s.Crashes))
	for i, cr := range s.Crashes {
		sigs[i] = w.strRef(cr.Signature)
		frameRefs[i] = make([]uint64, len(cr.Frames))
		for j, fr := range cr.Frames {
			frameRefs[i][j] = w.strRef(fr)
		}
	}
	w.u8(byte(KindInstance))
	w.varint(int64(s.ID))
	w.varint(s.AllocatedNS)
	w.varint(s.ReleasedNS)
	w.boolb(s.Failed)
	w.varint(int64(s.Coverage))
	w.uvarint(uint64(len(s.Crashes)))
	for i, cr := range s.Crashes {
		w.uvarint(sigs[i])
		w.varint(cr.AtNS)
		w.uvarint(uint64(len(cr.Frames)))
		for _, ref := range frameRefs[i] {
			w.uvarint(ref)
		}
	}
	w.maybeFlush()
}

// Subspace appends one accepted subspace (members already sorted).
func (w *Writer) Subspace(s Subspace) {
	if w.err != nil {
		return
	}
	entry := w.sigRef(s.Entry)
	members := make([]uint64, len(s.Members))
	for i, m := range s.Members {
		members[i] = w.sigRef(m)
	}
	w.u8(byte(KindSubspace))
	w.varint(int64(s.ID))
	w.uvarint(entry)
	w.varint(int64(s.Owner))
	w.varint(s.FoundNS)
	w.uvarint(uint64(len(members)))
	for _, m := range members {
		w.uvarint(m)
	}
	w.maybeFlush()
}

// Screen appends one distinct-screen digest.
func (w *Writer) Screen(s Screen) {
	if w.err != nil {
		return
	}
	sig := w.sigRef(s.Sig)
	activity := w.strRef(s.Activity)
	w.u8(byte(KindScreen))
	w.uvarint(sig)
	w.uvarint(activity)
	w.varint(int64(s.Nodes))
	w.maybeFlush()
}

// Transport appends the chaos run's transport accounting block.
func (w *Writer) Transport(t Transport) {
	if w.err != nil {
		return
	}
	w.u8(byte(KindTransport))
	w.transportBody(t)
	w.maybeFlush()
}

func (w *Writer) transportBody(t Transport) {
	for _, v := range []int{
		t.Events, t.Delivered, t.Commands, t.CommandFailures, t.Dropped,
		t.Delayed, t.Deaths, t.Hangs, t.AllocFailures, t.LostCommands,
		t.FailedInstances, t.OrphansPending,
	} {
		w.varint(int64(v))
	}
	w.boolb(t.CommandMix != nil)
	if t.CommandMix != nil {
		for _, v := range t.CommandMix.counts() {
			w.varint(int64(*v))
		}
	}
}

// Metric appends one metrics-registry snapshot entry.
func (w *Writer) Metric(m obs.Metric) {
	if w.err != nil {
		return
	}
	name := w.strRef(m.Name)
	typ := w.strRef(m.Type)
	w.u8(byte(KindMetric))
	w.uvarint(name)
	w.uvarint(typ)
	w.f64(m.Value)
	w.varint(m.Count)
	w.f64(m.Min)
	w.f64(m.Max)
	w.uvarint(uint64(len(m.Bounds)))
	for _, b := range m.Bounds {
		w.f64(b)
	}
	w.uvarint(uint64(len(m.Counts)))
	for _, c := range m.Counts {
		w.varint(c)
	}
	w.uvarint(uint64(len(m.Points)))
	last := int64(0)
	for _, p := range m.Points {
		w.varint(p.AtNS - last)
		last = p.AtNS
		w.f64(p.Value)
	}
	w.maybeFlush()
}

// End appends the run totals and flushes the final chunk (the caller still
// calls Close, which is then a no-op flush, to collect the error).
func (w *Writer) End(e End) {
	if w.err != nil {
		return
	}
	w.u8(byte(KindEnd))
	w.varint(e.WallNS)
	w.varint(e.MachineNS)
	w.varint(int64(e.Coverage))
	w.varint(int64(e.UniqueCrashes))
	w.flush()
}

// --- protocol records -----------------------------------------------------

// protocol reports whether a protocol record may be written: the stream
// must have been opened replayable.
func (w *Writer) protocol() bool {
	if w.err == nil && !w.replayable {
		w.err = fmt.Errorf("bin: protocol record in a stream not opened with NewReplayWriter")
	}
	return w.err == nil
}

// stamp opens a protocol record: kind byte, then its time as a delta
// against the previous protocol record.
func (w *Writer) stamp(k Kind, at sim.Duration) {
	w.u8(byte(k))
	w.varint(int64(at) - w.lastProtoAt)
	w.lastProtoAt = int64(at)
}

// Tree appends one abstract screen's definition: signature, activity and
// the node tree in pre-order.
func (w *Writer) Tree(at sim.Duration, sig uint64, s *ui.Screen) {
	if !w.protocol() {
		return
	}
	refs := []uint64{w.sigRef(sig), w.strRef(s.Activity)}
	refs = w.nodeRefs(refs, s.Root)
	w.stamp(KindTree, at)
	w.uvarint(refs[0])
	w.uvarint(refs[1])
	w.node(s.Root, refs[2:])
	w.maybeFlush()
}

// nodeRefs interns the strings of n's subtree in pre-order.
func (w *Writer) nodeRefs(refs []uint64, n *ui.Node) []uint64 {
	if n == nil {
		return refs
	}
	refs = append(refs, w.strRef(n.Class), w.strRef(n.ResourceID), w.strRef(n.Text))
	for _, ch := range n.Children {
		refs = w.nodeRefs(refs, ch)
	}
	return refs
}

// node writes n's subtree: a flags byte (present, enabled, clickable), the
// three string refs, the child count and the children. It returns the refs
// left over.
func (w *Writer) node(n *ui.Node, refs []uint64) []uint64 {
	if n == nil {
		w.u8(0)
		return refs
	}
	flags := byte(1)
	if n.Enabled {
		flags |= 2
	}
	if n.Clickable {
		flags |= 4
	}
	w.u8(flags)
	for _, ref := range refs[:3] {
		w.uvarint(ref)
	}
	refs = refs[3:]
	w.uvarint(uint64(len(n.Children)))
	for _, ch := range n.Children {
		refs = w.node(ch, refs)
	}
	return refs
}

// Delivered appends one event as delivered to the coordinator at at; the
// event's own time is a delta against the delivery.
func (w *Writer) Delivered(at sim.Duration, ev trace.Event) {
	if !w.protocol() {
		return
	}
	w.event(KindDelivered, at, &ev, int64(at))
}

// Command appends one command sent to the executor.
func (w *Writer) Command(at sim.Duration, c Command) { w.command(KindCommand, at, c) }

// Fate appends one fault-plan command injected below the coordinator.
func (w *Writer) Fate(at sim.Duration, c Command) { w.command(KindFate, at, c) }

func (w *Writer) command(k Kind, at sim.Duration, c Command) {
	if !w.protocol() {
		return
	}
	screen, widget := w.sigRef(c.Screen), w.strRef(c.Widget)
	w.stamp(k, at)
	w.u8(c.Kind)
	w.varint(int64(c.Instance))
	w.uvarint(screen)
	w.uvarint(widget)
	w.boolb(c.Coord)
	w.maybeFlush()
}

// Reply appends the executor's answer to the preceding command.
func (w *Writer) Reply(at sim.Duration, r Reply) {
	if !w.protocol() {
		return
	}
	var msg uint64
	if r.ErrClass != 0 {
		msg = w.strRef(r.Err)
	}
	w.stamp(KindReply, at)
	w.varint(int64(r.Instance))
	w.u8(r.ErrClass)
	if r.ErrClass != 0 {
		w.uvarint(msg)
	}
	w.maybeFlush()
}

// Lease appends one instance boot.
func (w *Writer) Lease(at sim.Duration, id int) {
	if !w.protocol() {
		return
	}
	w.stamp(KindLease, at)
	w.varint(int64(id))
	w.maybeFlush()
}

// Tick appends one strategy tick.
func (w *Writer) Tick(at sim.Duration) {
	if !w.protocol() {
		return
	}
	w.stamp(KindTick, at)
	w.maybeFlush()
}

// Accounting appends the run-end transport accounting.
func (w *Writer) Accounting(at sim.Duration, t Transport) {
	if !w.protocol() {
		return
	}
	w.stamp(KindAccounting, at)
	w.transportBody(t)
	w.maybeFlush()
}
