package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// ErrCorrupt marks a stream that violates the format: a bad magic or
// version, a record running past its chunk, a reference outside the intern
// tables, an implausible chunk length, or a record sequence that breaks the
// stream framing (see Reader). Every decode failure wraps it, so callers
// can errors.Is-classify corruption apart from plain I/O errors.
var ErrCorrupt = errors.New("bin: corrupt stream")

// Reader streams records back out of a chunked binary trace. It loads one
// chunk at a time, so reader memory is bounded by the largest chunk plus the
// intern tables — never the whole stream. Interning records (KindStrDef,
// KindSigDef) are consumed internally; Next never surfaces them.
//
// The Reader is the one authority on stream framing, so every consumer
// accepts exactly the same streams. Beyond the per-record layout, Next
// fails with ErrCorrupt on:
//
//   - a second header record;
//   - a replay record anywhere but right after the header, or a protocol
//     record in a stream without one;
//   - a decision or metric record in a stream whose header does not flag
//     telemetry, or a transport record in one whose header does not flag
//     faults;
//   - a second summary for one instance, or a ground event of an instance
//     after its summary;
//   - an end record while an instance has ground events but no summary;
//   - any record after the end record, or a stream that ends without one.
//
// So io.EOF means the stream closed with its end record, and every ground
// event belongs to exactly one instance summary.
type Reader struct {
	r   io.Reader
	hdr Header
	err error

	chunk []byte
	off   int

	strs []string
	sigs []uint64

	insts     map[int]instState
	lastWall  int64
	lastDecAt int64

	// n counts the records surfaced so far (the header is record 0);
	// replayable is set by a replay record at n == 1 and admits protocol
	// records; ended is set by the end record.
	n           int
	replayable  bool
	lastProtoAt int64
	ended       bool
}

// instState is what the Reader tracks per instance: its last ground
// event's time (the next event's delta base) and whether its summary has
// been read. An instance enters the map with its first event or its
// summary, so an entry without a summary has events.
type instState struct {
	lastAt     int64
	summarized bool
}

// maxNodeDepth bounds the nesting of a decoded screen tree, so a corrupt
// stream of deeply nested nodes fails with an error instead of overflowing
// the decoder's stack. Real screens are a handful of levels deep.
const maxNodeDepth = 256

// NewReader opens a binary trace stream: it validates the magic and codec
// version and decodes the mandatory header record.
func NewReader(r io.Reader) (*Reader, error) {
	br := &Reader{r: r, insts: make(map[int]instState)}
	var pre [len(Magic) + 1]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:len(Magic)])
	}
	if v := pre[len(Magic)]; v != Version {
		return nil, fmt.Errorf("%w: unknown codec version %d (reader knows %d)", ErrCorrupt, v, Version)
	}
	rec, err := br.Next()
	if err != nil {
		return nil, err
	}
	if rec.Kind != KindHeader {
		return nil, fmt.Errorf("%w: first record is %v, want header", ErrCorrupt, rec.Kind)
	}
	return br, nil
}

// Header returns the run identity the stream opened with.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record, or io.EOF at a clean end of stream: a chunk
// boundary after the end record. Errors latch: after a failure every later
// call returns it.
//
//lint:hotpath
func (r *Reader) Next() (Record, error) {
	for {
		if r.err != nil {
			return Record{}, r.err
		}
		if r.off == len(r.chunk) {
			if err := r.loadChunk(); err != nil {
				if err == io.EOF && !r.ended {
					err = fmt.Errorf("%w: stream ends without end record", ErrCorrupt)
				}
				if err != io.EOF {
					r.err = err
				}
				return Record{}, err
			}
		}
		kind := Kind(r.u8())
		if r.ended {
			r.corruptf("%v record after end", kind)
			return Record{}, r.err
		}
		rec := Record{Kind: kind}
		switch kind {
		case KindStrDef:
			r.strs = append(r.strs, r.rawstr())
			continue
		case KindSigDef:
			r.sigs = append(r.sigs, r.u64le())
			continue
		case KindHeader:
			if r.n != 0 {
				r.corruptf("second header record")
			}
			r.hdr = r.header()
			rec.Header = r.hdr
		case KindEvent:
			rec.Event = r.event(kind, 0)
		case KindSample:
			rec.Sample = r.sample()
		case KindDecision:
			r.flagged(kind, r.hdr.Telemetry, "telemetry")
			rec.Decision = r.decision()
		case KindInstance:
			rec.Summary = r.instance()
			r.summarize(rec.Summary.ID)
		case KindSubspace:
			rec.Subspace = r.subspace()
		case KindScreen:
			rec.Screen = r.screen()
		case KindTransport:
			r.flagged(kind, r.hdr.Faults, "faults")
			rec.Transport = r.transport()
		case KindMetric:
			r.flagged(kind, r.hdr.Telemetry, "telemetry")
			rec.Metric = r.metric()
		case KindEnd:
			rec.End = r.end()
			r.ended = true
			r.checkSummaries()
		case KindReplay:
			if r.n != 1 {
				r.corruptf("replay record is not the first record after the header")
			}
			r.replayable = true
			rec.Replay = r.replayConfig()
		case KindTree:
			rec.At = r.at()
			rec.Screen.Sig = r.sig()
			rec.Tree = r.tree()
		case KindDelivered:
			rec.At = r.at()
			rec.Event = r.event(kind, int64(rec.At))
		case KindCommand, KindFate:
			rec.At = r.at()
			rec.Command = r.command()
		case KindReply:
			rec.At = r.at()
			rec.Reply = r.reply()
		case KindLease:
			rec.At = r.at()
			rec.Lease = int(r.varint())
		case KindTick:
			rec.At = r.at()
		case KindAccounting:
			rec.At = r.at()
			rec.Transport = r.transport()
		default:
			r.corruptf("unknown record kind %d", byte(kind))
		}
		if r.err != nil {
			return Record{}, r.err
		}
		r.n++
		return rec, nil
	}
}

// loadChunk reads the next chunk's length prefix and payload. io.EOF at the
// prefix is the one clean way a stream ends.
func (r *Reader) loadChunk() error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: reading chunk length: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxChunkSize {
		return fmt.Errorf("%w: chunk length %d out of range", ErrCorrupt, n)
	}
	if cap(r.chunk) < int(n) {
		r.chunk = make([]byte, n)
	}
	r.chunk = r.chunk[:n]
	r.off = 0
	if _, err := io.ReadFull(r.r, r.chunk); err != nil {
		return fmt.Errorf("%w: reading %d-byte chunk: %v", ErrCorrupt, n, err)
	}
	return nil
}

// flagged rejects a record of kind k unless the header set the flag that
// announces such records.
func (r *Reader) flagged(k Kind, set bool, flag string) {
	if !set {
		r.corruptf("%v record without the header's %s flag", k, flag)
	}
}

// summarize marks instance id summarized, rejecting a second summary.
func (r *Reader) summarize(id int) {
	st := r.insts[id]
	if st.summarized {
		r.corruptf("second summary for instance %d", id)
	}
	st.summarized = true
	r.insts[id] = st
}

// checkSummaries rejects an instance left with ground events but no
// summary at the end record. It names the lowest such ID, so the error is
// stable.
func (r *Reader) checkSummaries() {
	orphan, found := 0, false
	for id, st := range r.insts {
		if !st.summarized && (!found || id < orphan) {
			orphan, found = id, true
		}
	}
	if found {
		r.corruptf("instance %d has ground events but no summary", orphan)
	}
}

// corruptf latches a corruption error.
func (r *Reader) corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// --- primitive decoders (error-latching, wire-codec style) ----------------

func (r *Reader) rem() int { return len(r.chunk) - r.off }

func (r *Reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.corruptf("record truncated at chunk boundary")
		return 0
	}
	b := r.chunk[r.off]
	r.off++
	return b
}

func (r *Reader) u64le() uint64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.corruptf("record truncated at chunk boundary")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.chunk[r.off:])
	r.off += 8
	return v
}

func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.chunk[r.off:])
	if n <= 0 {
		r.corruptf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.chunk[r.off:])
	if n <= 0 {
		r.corruptf("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) f64() float64 { return math.Float64frombits(r.u64le()) }

func (r *Reader) boolb() bool { return r.u8() != 0 }

func (r *Reader) rawstr() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.rem()) {
		r.corruptf("string length %d exceeds chunk remainder %d", n, r.rem())
		return ""
	}
	s := string(r.chunk[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count decodes a collection length and guards it against the bytes left in
// the chunk (every element costs at least one byte), bounding allocations.
func (r *Reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.rem()) {
		r.corruptf("count %d exceeds chunk remainder %d", n, r.rem())
		return 0
	}
	return int(n)
}

// str resolves a string-table reference.
func (r *Reader) str() string {
	id := r.uvarint()
	if r.err != nil {
		return ""
	}
	if id >= uint64(len(r.strs)) {
		r.corruptf("string ref %d outside table of %d", id, len(r.strs))
		return ""
	}
	return r.strs[id]
}

// sig resolves a signature-table reference.
func (r *Reader) sig() uint64 {
	id := r.uvarint()
	if r.err != nil {
		return 0
	}
	if id >= uint64(len(r.sigs)) {
		r.corruptf("signature ref %d outside table of %d", id, len(r.sigs))
		return 0
	}
	return r.sigs[id]
}

// --- record decoders ------------------------------------------------------

func (r *Reader) header() Header {
	h := Header{
		App:           r.rawstr(),
		Tool:          r.rawstr(),
		Setting:       r.rawstr(),
		Seed:          r.varint(),
		ScenarioHash:  r.rawstr(),
		ExportVersion: int(r.varint()),
	}
	flags := r.u8()
	h.Telemetry = flags&1 != 0
	h.Faults = flags&2 != 0
	return h
}

// event decodes an event body. A ground event's time is a delta against
// its instance's previous event, a delivered one's against the delivery
// time at.
//
//lint:hotpath
func (r *Reader) event(k Kind, at int64) trace.Event {
	inst := int(r.uvarint())
	var st instState
	if k == KindEvent {
		st = r.insts[inst]
		if st.summarized {
			r.corruptf("event of instance %d after its summary", inst)
		}
		at = st.lastAt
	}
	at += r.varint()
	if k == KindEvent && r.err == nil {
		st.lastAt = at
		r.insts[inst] = st
	}
	packed := r.u8()
	return trace.Event{
		Instance: inst,
		At:       sim.Duration(at),
		Action: trace.Action{
			Kind:   trace.ActionKind(packed & 0x3f),
			Widget: ui.WidgetPath(r.str()),
		},
		From:     ui.Signature(r.sig()),
		To:       ui.Signature(r.sig()),
		Activity: r.str(),
		Crashed:  packed&0x40 != 0,
		Enforced: packed&0x80 != 0,
	}
}

//lint:hotpath
func (r *Reader) sample() Sample {
	s := Sample{}
	s.WallNS = r.lastWall + r.varint()
	if r.err == nil {
		r.lastWall = s.WallNS
	}
	s.MachineNS = r.varint()
	s.Covered = int(r.varint())
	s.Crashes = int(r.varint())
	if r.boolb() {
		s.AJS = r.f64()
	}
	return s
}

//lint:hotpath
func (r *Reader) decision() obs.Decision {
	d := obs.Decision{}
	d.AtNS = r.lastDecAt + r.varint()
	if r.err == nil {
		r.lastDecAt = d.AtNS
	}
	d.Kind = r.str()
	d.Instance = int(r.varint())
	d.Sub = int(r.varint())
	flags := r.u8()
	if flags&decHasEntry != 0 {
		d.Entry = r.sig()
	}
	if flags&decHasMembers != 0 {
		d.Members = int(r.varint())
	}
	if flags&decHasScore != 0 {
		d.Score = r.f64()
	}
	if flags&decHasOverlap != 0 {
		d.Overlap = r.f64()
	}
	if flags&decHasPurity != 0 {
		d.Purity = r.f64()
	}
	if flags&decHasReason != 0 {
		d.Reason = r.str()
	}
	if flags&decHasBackoff != 0 {
		d.BackoffNS = r.varint()
	}
	if flags&decHasIdle != 0 {
		d.IdleNS = r.varint()
	}
	return d
}

func (r *Reader) instance() InstanceSummary {
	s := InstanceSummary{
		ID:          int(r.varint()),
		AllocatedNS: r.varint(),
		ReleasedNS:  r.varint(),
		Failed:      r.boolb(),
		Coverage:    int(r.varint()),
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		cr := Crash{Signature: r.str(), AtNS: r.varint()}
		fn := r.count()
		for j := 0; j < fn && r.err == nil; j++ {
			cr.Frames = append(cr.Frames, r.str())
		}
		s.Crashes = append(s.Crashes, cr)
	}
	return s
}

func (r *Reader) subspace() Subspace {
	s := Subspace{
		ID:      int(r.varint()),
		Entry:   r.sig(),
		Owner:   int(r.varint()),
		FoundNS: r.varint(),
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		s.Members = append(s.Members, r.sig())
	}
	return s
}

func (r *Reader) screen() Screen {
	return Screen{
		Sig:      r.sig(),
		Activity: r.str(),
		Nodes:    int(r.varint()),
	}
}

func (r *Reader) transport() Transport {
	t := Transport{}
	for _, p := range []*int{
		&t.Events, &t.Delivered, &t.Commands, &t.CommandFailures, &t.Dropped,
		&t.Delayed, &t.Deaths, &t.Hangs, &t.AllocFailures, &t.LostCommands,
		&t.FailedInstances, &t.OrphansPending,
	} {
		*p = int(r.varint())
	}
	if r.boolb() {
		t.CommandMix = &CommandMix{}
		for _, p := range t.CommandMix.counts() {
			*p = int(r.varint())
		}
	}
	return t
}

func (r *Reader) metric() obs.Metric {
	m := obs.Metric{
		Name:  r.str(),
		Type:  r.str(),
		Value: r.f64(),
		Count: r.varint(),
		Min:   r.f64(),
		Max:   r.f64(),
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Bounds = append(m.Bounds, r.f64())
	}
	n = r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Counts = append(m.Counts, r.varint())
	}
	n = r.count()
	last := int64(0)
	for i := 0; i < n && r.err == nil; i++ {
		at := last + r.varint()
		last = at
		m.Points = append(m.Points, obs.SeriesPoint{AtNS: at, Value: r.f64()})
	}
	return m
}

func (r *Reader) end() End {
	return End{
		WallNS:        r.varint(),
		MachineNS:     r.varint(),
		Coverage:      int(r.varint()),
		UniqueCrashes: int(r.varint()),
	}
}

// --- protocol records -----------------------------------------------------

// at opens a protocol record: it rejects one in a stream that was not
// announced replayable, then decodes the record's delta time.
func (r *Reader) at() sim.Duration {
	if !r.replayable {
		r.corruptf("protocol record in a stream without a replay record")
		return 0
	}
	at := r.lastProtoAt + r.varint()
	if r.err == nil {
		r.lastProtoAt = at
	}
	return sim.Duration(at)
}

func (r *Reader) replayConfig() *ReplayConfig {
	return &ReplayConfig{
		Instances:       int(r.varint()),
		MaxDevices:      int(r.varint()),
		DurationNS:      r.varint(),
		MachineBudgetNS: r.varint(),
		SampleEveryNS:   r.varint(),
		CoreOverride:    r.boolb(),
	}
}

func (r *Reader) tree() *ui.Screen {
	return &ui.Screen{Activity: r.str(), Root: r.node(1)}
}

// node decodes the subtree at nesting depth (the root is depth 1).
func (r *Reader) node(depth int) *ui.Node {
	flags := r.u8()
	if flags&1 == 0 || r.err != nil {
		return nil
	}
	if depth > maxNodeDepth {
		r.corruptf("screen tree nests deeper than %d levels", maxNodeDepth)
		return nil
	}
	n := &ui.Node{
		Class: r.str(), ResourceID: r.str(), Text: r.str(),
		Enabled: flags&2 != 0, Clickable: flags&4 != 0,
	}
	k := r.count()
	for i := 0; i < k && r.err == nil; i++ {
		n.Children = append(n.Children, r.node(depth+1))
	}
	return n
}

func (r *Reader) command() *Command {
	return &Command{
		Kind:     r.u8(),
		Instance: int(r.varint()),
		Screen:   r.sig(),
		Widget:   r.str(),
		Coord:    r.boolb(),
	}
}

func (r *Reader) reply() *Reply {
	rep := &Reply{Instance: int(r.varint()), ErrClass: r.u8()}
	if rep.ErrClass != 0 {
		rep.Err = r.str()
	}
	return rep
}
