package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

func testScreen() *ui.Screen {
	root := &ui.Node{
		Class: "FrameLayout", ResourceID: "root", Enabled: true,
		Children: []*ui.Node{
			{Class: "Button", ResourceID: "buy", Text: "Buy", Enabled: true, Clickable: true},
			{Class: "TextView", Text: "hello"},
			{Class: "LinearLayout", Enabled: true, Children: []*ui.Node{
				{Class: "ImageView", ResourceID: "logo", Clickable: true},
			}},
		},
	}
	return &ui.Screen{Activity: "MainActivity", Root: root}
}

// allFrames is one frame of every kind, with every payload field exercised.
func allFrames(t *testing.T) []Frame {
	t.Helper()
	screen := testScreen()
	sig := ui.Signature(0x1122334455667788)
	ev := trace.Event{
		Instance: 3,
		At:       sim.Duration(42e9),
		Action:   trace.Action{Kind: trace.ActionTap, Widget: ui.WidgetPath("root/buy")},
		From:     sig,
		To:       ui.Signature(7),
		Activity: "CartActivity",
		Crashed:  true,
		Enforced: true,
	}
	return []Frame{
		{Kind: FrameHeader, Header: Header{
			App: "Filters For Selfie", Tool: "monkey", Setting: "taopt-duration",
			Seed: -9, Instances: 5, MaxDevices: 8, DurationNS: 3600e9,
			MachineBudgetNS: 5 * 3600e9, SampleEveryNS: 30e9,
			CoreOverride: false, Telemetry: true, FaultsEnabled: true,
		}},
		{Kind: FrameScreen, At: 1e9, Sig: sig, Screen: screen},
		{Kind: FrameEvent, At: 2e9, Event: ev},
		{Kind: FrameDelivered, At: 3e9, Event: ev},
		{Kind: FrameCommand, At: 4e9, Cmd: bus.Command{Kind: bus.BlockWidget, Instance: 2, Screen: sig, Widget: ui.WidgetPath("root/buy")}, Coord: true},
		{Kind: FrameCommand, At: 4e9, Cmd: bus.Command{Kind: bus.Deallocate, Instance: 2}},
		{Kind: FrameReply, At: 4e9, Reply: bus.Reply{Instance: 2}},
		{Kind: FrameReply, At: 5e9, Reply: bus.Reply{Err: bus.ErrNotBound}},
		{Kind: FrameFate, At: 6e9, Cmd: bus.Command{Kind: bus.Kill, Instance: 1}},
		{Kind: FrameLease, At: 7e9, Instance: 4, Event: ev},
		{Kind: FrameTick, At: 8e9},
		{Kind: FrameSample, At: 9e9, Sample: Sample{WallNS: 9e9, MachineNS: 45e9, Covered: 120, Crashes: 2, AJS: 0.25}},
		{Kind: FrameInstance, At: 10e9, Summary: Summary{
			ID: 4, AllocatedNS: 7e9, ReleasedNS: 10e9, Failed: true, Coverage: 33,
			Crashes: []CrashInfo{{Signature: "NullPointerException@CartActivity", AtNS: 8e9, Frames: []string{"a", "b"}}},
		}},
		{Kind: FrameRunEnd, At: 11e9, End: RunEnd{
			WallNS: 11e9, MachineNS: 55e9, Coverage: 140, UniqueCrashes: 2,
			FailedInstances: 1, OrphansPending: 1,
			Stats: bus.Stats{
				Published: 10, Delivered: 8, Commands: 5, CommandFailures: 2,
				ByKind:  [bus.NumCommandKinds]int{bus.Allocate: 3, bus.Kill: 2},
				Dropped: 2, Delayed: 1, Deaths: 2, Hangs: 1, AllocFailures: 1, LostCommands: 1,
			},
		}},
	}
}

// TestCodecRoundTrip marshals every frame kind and decodes it back, field
// for field, including the recursive screen tree and the stats map.
func TestCodecRoundTrip(t *testing.T) {
	for _, f := range allFrames(t) {
		payload, err := marshalFrame(f)
		if err != nil {
			t.Fatalf("%v: marshal: %v", f.Kind, err)
		}
		got, err := decodeFrame(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		// Replies carry errors, which decode to transport-invariant values
		// rather than the original instances; compare their views separately.
		if f.Kind == FrameReply {
			if got.Reply.Instance != f.Reply.Instance {
				t.Fatalf("reply instance changed: %d -> %d", f.Reply.Instance, got.Reply.Instance)
			}
			if (got.Reply.Err == nil) != (f.Reply.Err == nil) {
				t.Fatalf("reply error presence changed: %v -> %v", f.Reply.Err, got.Reply.Err)
			}
			if f.Reply.Err != nil {
				if got.Reply.Err.Error() != f.Reply.Err.Error() {
					t.Fatalf("reply error message changed: %q -> %q", f.Reply.Err, got.Reply.Err)
				}
				if !errors.Is(got.Reply.Err, bus.ErrNotBound) {
					t.Fatalf("reply error lost its sentinel: %v", got.Reply.Err)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%v: round-trip changed the frame:\n got %+v\nwant %+v", f.Kind, got, f)
		}
	}
}

// TestCodecErrorClasses pins the sentinel classification across the wire:
// errors.Is must keep working on decoded replies for every retryable class.
func TestCodecErrorClasses(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{bus.ErrFarmBusy, bus.ErrFarmBusy},
		{bus.ErrTimeout, bus.ErrTimeout},
		{bus.ErrNotBound, bus.ErrNotBound},
		{errors.New("bus: unknown instance 9"), nil},
	}
	for _, c := range cases {
		payload, err := marshalFrame(Frame{Kind: FrameReply, Reply: bus.Reply{Err: c.err}})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := decodeFrame(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Reply.Err.Error() != c.err.Error() {
			t.Fatalf("message changed: %q -> %q", c.err, got.Reply.Err)
		}
		if c.sentinel != nil && !errors.Is(got.Reply.Err, c.sentinel) {
			t.Fatalf("decoded %q lost sentinel %v", c.err, c.sentinel)
		}
		if bus.Retryable(c.err) != bus.Retryable(got.Reply.Err) {
			t.Fatalf("retryability of %q changed across the wire", c.err)
		}
	}
}

// TestCodecRejectsTrailingBytes guards frame framing: junk after a valid
// payload is corruption, not slack.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	payload, err := marshalFrame(Frame{Kind: FrameTick, At: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFrame(append(payload, 0xFF)); err == nil {
		t.Fatal("decodeFrame accepted trailing bytes")
	}
	if _, err := decodeFrame(payload[:len(payload)-1]); err == nil {
		t.Fatal("decodeFrame accepted a truncated payload")
	}
}

type echoExec struct{ next int }

func (e *echoExec) Exec(cmd bus.Command) bus.Reply {
	switch cmd.Kind {
	case bus.Allocate:
		e.next++
		return bus.Reply{Instance: e.next}
	default:
		return bus.Reply{Instance: cmd.Instance}
	}
}

// TestRecorderFrameOrdering replays the canonical exchange shapes through
// the two recording decorators and pins the resulting frame sequence.
func TestRecorderFrameOrdering(t *testing.T) {
	var now sim.Duration
	var buf bytes.Buffer
	book := trace.NewBook()
	screen := testScreen()
	sig := screen.Abstract()
	book.Observe(sig, func() *ui.Screen { return screen })

	rec := NewRecorder(&buf, func() sim.Duration { return now }, book, Header{App: "x", Tool: "monkey", Setting: "baseline"})
	base := bus.NewInline()
	base.Bind(&echoExec{})
	port := rec.Outer(rec.Inner(base))

	// A coordinator-sent command referencing a screen: definition, command,
	// reply.
	now = 1e9
	rec.Coordinating(true)
	port.Send(bus.Command{Kind: bus.BlockWidget, Instance: 1, Screen: sig})
	rec.Coordinating(false)
	// A ground event, then its post-fault delivery.
	ev := trace.Event{Instance: 1, From: sig, To: sig, Activity: "MainActivity"}
	port.Publish(ev)
	// A fate injection entering below the coordinator's view.
	rec.Inner(base).Send(bus.Command{Kind: bus.Kill, Instance: 1})
	// Run-end bookkeeping.
	now = 2e9
	rec.TickMark()
	rec.End(RunEnd{WallNS: int64(now)})
	if rec.Err() != nil {
		t.Fatalf("recorder error: %v", rec.Err())
	}

	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("reading log back: %v", err)
	}
	if log.Header.App != "x" || log.Header.Tool != "monkey" {
		t.Fatalf("header not lifted from the stream: %+v", log.Header)
	}
	want := []FrameKind{FrameScreen, FrameCommand, FrameReply, FrameEvent, FrameDelivered, FrameFate, FrameTick, FrameRunEnd}
	var got []FrameKind
	for _, f := range log.Frames {
		got = append(got, f.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame sequence:\n got %v\nwant %v", got, want)
	}
	if !log.Frames[1].Coord {
		t.Fatal("coordinator-sent command recorded without its origin flag")
	}
	if log.Frames[0].Sig != sig {
		t.Fatalf("screen defined as %v, want %v", log.Frames[0].Sig, sig)
	}
	// The decoded screen hashes back to its recorded signature.
	if re := log.Frames[0].Screen.Abstract(); re != sig {
		t.Fatalf("decoded screen re-hashes to %v, want %v", re, sig)
	}
}

// TestReadLogRejectsGarbage: wrong magic, wrong version and a missing
// header are loud errors.
func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("NOTAWLOG"))); err == nil {
		t.Fatal("accepted bad magic")
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf, func() sim.Duration { return 0 }, trace.NewBook(), Header{})
	rec.End(RunEnd{})
	raw := buf.Bytes()
	raw[len(logMagic)] = 99 // corrupt the version byte
	if _, err := ReadLog(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted unknown version")
	}
}

// TestReadLogRejectsDeepScreenTree: a screen frame nested one level past
// maxNodeDepth is a decode error, not unbounded recursion; a tree exactly
// at the limit still decodes.
func TestReadLogRejectsDeepScreenTree(t *testing.T) {
	logOf := func(depth int) []byte {
		root := &ui.Node{Class: "L"}
		for n, i := root, 1; i < depth; i++ {
			ch := &ui.Node{Class: "L"}
			n.Children = []*ui.Node{ch}
			n = ch
		}
		raw := append([]byte(logMagic), logVersion)
		for _, f := range []Frame{
			{Kind: FrameHeader},
			{Kind: FrameScreen, Sig: 1, Screen: &ui.Screen{Activity: "A", Root: root}},
		} {
			var err error
			if raw, err = appendFrame(raw, f); err != nil {
				t.Fatal(err)
			}
		}
		return raw
	}
	if _, err := ReadLog(bytes.NewReader(logOf(maxNodeDepth))); err != nil {
		t.Fatalf("tree at the depth limit rejected: %v", err)
	}
	deep := logOf(maxNodeDepth + 1)
	if _, err := ReadLog(bytes.NewReader(deep)); err == nil {
		t.Fatalf("tree %d levels deep accepted (%d-byte log)", maxNodeDepth+1, len(deep))
	}
}
