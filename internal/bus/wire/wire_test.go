package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
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

var testHeader = bin.Header{App: "Filters For Selfie", Tool: "monkey", Setting: "taopt-duration", Seed: -9, Telemetry: true, Faults: true}

var testReplay = bin.ReplayConfig{
	Instances: 5, MaxDevices: 8, DurationNS: 3600e9,
	MachineBudgetNS: 5 * 3600e9, SampleEveryNS: 30e9,
}

// records opens a replayable stream, lets write fill it, closes it with an
// end record, and decodes every record between the replay announcement and
// the end record back.
func records(t *testing.T, write func(w *bin.Writer)) []bin.Record {
	t.Helper()
	var buf bytes.Buffer
	w := bin.NewReplayWriter(&buf, testHeader, testReplay)
	write(w)
	w.End(bin.End{})
	if err := w.Close(); err != nil {
		t.Fatalf("writing: %v", err)
	}
	recs, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatalf("reading back: %v", err)
	}
	if recs[0].Kind != bin.KindReplay || *recs[0].Replay != testReplay {
		t.Fatalf("stream opens with %v %+v, want the replay config", recs[0].Kind, recs[0].Replay)
	}
	return recs[1 : len(recs)-1]
}

func readAll(raw []byte) ([]bin.Record, error) {
	br, err := bin.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var out []bin.Record
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, *rec)
	}
}

// TestCodecRoundTrip writes one record of every protocol kind and decodes it
// back, field for field, including the recursive screen tree and the
// command and reply mappings.
func TestCodecRoundTrip(t *testing.T) {
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
	block := bus.Command{Kind: bus.BlockWidget, Instance: 2, Screen: sig, Widget: ui.WidgetPath("root/buy")}
	release := bus.Command{Kind: bus.Deallocate, Instance: 2}
	kill := bus.Command{Kind: bus.Kill, Instance: 1}
	acct := bin.Transport{
		Events: 10, Delivered: 8, Commands: 5, CommandFailures: 2, Dropped: 2, Delayed: 1,
		Deaths: 2, Hangs: 1, AllocFailures: 1, LostCommands: 1, FailedInstances: 1, OrphansPending: 1,
		CommandMix: &bin.CommandMix{Allocate: 3, Kill: 2},
	}
	recs := records(t, func(w *bin.Writer) {
		w.Tree(1e9, uint64(sig), screen)
		w.Delivered(50e9, ev)
		w.Command(51e9, encodeCommand(block, true))
		w.Command(51e9, encodeCommand(release, false))
		w.Reply(51e9, encodeReply(bus.Reply{Instance: 2}))
		w.Reply(52e9, encodeReply(bus.Reply{Err: bus.ErrNotBound}))
		w.Fate(53e9, encodeCommand(kill, false))
		w.Lease(54e9, 4)
		w.Tick(55e9)
		w.Accounting(56e9, acct)
	})
	want := []bin.Kind{bin.KindTree, bin.KindDelivered, bin.KindCommand, bin.KindCommand,
		bin.KindReply, bin.KindReply, bin.KindFate, bin.KindLease, bin.KindTick, bin.KindAccounting}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Kind != want[i] {
			t.Fatalf("record %d is %v, want %v", i, rec.Kind, want[i])
		}
	}
	if r := recs[0]; r.At != 1e9 || r.Screen.Sig != uint64(sig) || !reflect.DeepEqual(r.Tree, screen) {
		t.Fatalf("tree changed: at %v sig %x tree %+v", r.At, r.Screen.Sig, r.Tree)
	}
	if r := recs[1]; r.At != 50e9 || r.Event != ev {
		t.Fatalf("delivered event changed: at %v %+v", r.At, r.Event)
	}
	if c := *recs[2].Command; DecodeCommand(c) != block || !c.Coord {
		t.Fatalf("coordinator command changed: %+v", c)
	}
	if c := *recs[3].Command; DecodeCommand(c) != release || c.Coord {
		t.Fatalf("runner command changed: %+v", c)
	}
	if rep := DecodeReply(*recs[4].Reply); rep.Instance != 2 || rep.Err != nil {
		t.Fatalf("reply changed: %+v", rep)
	}
	// Reply errors decode to transport-invariant values rather than the
	// original instances; compare their views.
	if rep := DecodeReply(*recs[5].Reply); rep.Err == nil || rep.Err.Error() != bus.ErrNotBound.Error() || !errors.Is(rep.Err, bus.ErrNotBound) {
		t.Fatalf("reply error changed: %v", rep.Err)
	}
	if c := DecodeCommand(*recs[6].Command); c != kill {
		t.Fatalf("fate changed: %+v", c)
	}
	if r := recs[7]; r.At != 54e9 || r.Lease != 4 {
		t.Fatalf("lease changed: at %v inst %d", r.At, r.Lease)
	}
	if r := recs[8]; r.At != 55e9 {
		t.Fatalf("tick at %v, want 55s", r.At)
	}
	if r := recs[9]; !reflect.DeepEqual(r.Transport, acct) {
		t.Fatalf("accounting changed: %+v", r.Transport)
	}
}

// TestCodecErrorClasses pins the sentinel classification across the
// record: errors.Is must keep working on decoded replies for every
// retryable class.
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
		recs := records(t, func(w *bin.Writer) { w.Reply(0, encodeReply(bus.Reply{Err: c.err})) })
		got := DecodeReply(*recs[0].Reply).Err
		if got == nil || got.Error() != c.err.Error() {
			t.Fatalf("message changed: %q -> %v", c.err, got)
		}
		if c.sentinel != nil && !errors.Is(got, c.sentinel) {
			t.Fatalf("decoded %q lost sentinel %v", c.err, c.sentinel)
		}
		if bus.Retryable(c.err) != bus.Retryable(got) {
			t.Fatalf("retryability of %q changed across the record", c.err)
		}
	}
}

// TestCodecRejectsTrailingBytes guards record framing: junk after a valid
// record is corruption, not slack, and so is a chunk cut short.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	w := bin.NewReplayWriter(&buf, testHeader, testReplay)
	w.Tick(1e9)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	chunk := len(bin.Magic) + 1 // the one chunk's length prefix
	payload := int(binary.LittleEndian.Uint32(raw[chunk:]))

	junk := append(append([]byte(nil), raw...), 0xFF)
	binary.LittleEndian.PutUint32(junk[chunk:], uint32(payload+1))
	if _, err := readAll(junk); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("junk after a record: got %v, want ErrCorrupt", err)
	}
	if _, err := readAll(raw[:len(raw)-1]); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("truncated chunk: got %v, want ErrCorrupt", err)
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
// the two recording decorators and pins the resulting record sequence.
func TestRecorderFrameOrdering(t *testing.T) {
	var now sim.Duration
	book := trace.NewBook()
	screen := testScreen()
	sig := screen.Abstract()
	book.Observe(sig, func() *ui.Screen { return screen })

	recs := records(t, func(w *bin.Writer) {
		rec := NewRecorder(w, func() sim.Duration { return now }, book)
		base := bus.NewInline()
		base.Bind(&echoExec{})
		port := rec.Outer(rec.Inner(base))

		// A coordinator-sent command referencing a screen: definition,
		// command, reply.
		now = 1e9
		rec.Coordinating(true)
		port.Send(bus.Command{Kind: bus.BlockWidget, Instance: 1, Screen: sig})
		rec.Coordinating(false)
		// A ground event: only its post-fault delivery is a protocol
		// record (the harness writes the ground event itself).
		port.Publish(trace.Event{Instance: 1, From: sig, To: sig, Activity: "MainActivity"})
		// A fate injection entering below the coordinator's view.
		rec.Inner(base).Send(bus.Command{Kind: bus.Kill, Instance: 1})
		// A runner-side guard rejection and a tick.
		now = 2e9
		rec.Local(bus.Command{Kind: bus.Allocate}, bus.Reply{Err: errors.New("harness: run ended")})
		rec.TickMark()
	})
	want := []bin.Kind{bin.KindTree, bin.KindCommand, bin.KindReply, bin.KindDelivered,
		bin.KindFate, bin.KindCommand, bin.KindReply, bin.KindTick}
	var got []bin.Kind
	for _, r := range recs {
		got = append(got, r.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record sequence:\n got %v\nwant %v", got, want)
	}
	if !recs[1].Command.Coord || recs[5].Command.Coord {
		t.Fatal("command origin flags not recorded as sent")
	}
	if recs[0].Screen.Sig != uint64(sig) {
		t.Fatalf("screen defined as %x, want %v", recs[0].Screen.Sig, sig)
	}
	// The decoded screen hashes back to its recorded signature.
	if re := recs[0].Tree.Abstract(); re != sig {
		t.Fatalf("decoded screen re-hashes to %v, want %v", re, sig)
	}
	if recs[7].At != 2e9 {
		t.Fatalf("tick recorded at %v, want 2s", recs[7].At)
	}
}

// TestReadLogRejectsGarbage: a wrong magic, a wrong version and protocol
// records in a stream that did not announce them right after its header
// are loud errors; a plain writer refuses to write them at all.
func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := readAll([]byte("NOTATRACE")); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("bad magic: got %v", err)
	}
	var buf bytes.Buffer
	w := bin.NewReplayWriter(&buf, testHeader, testReplay)
	w.Tick(1e9)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(bin.Magic)] = 99 // corrupt the version byte
	if _, err := readAll(raw); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("unknown version: got %v", err)
	}

	// plainWith appends one chunk of raw record bytes, closed by a zero end
	// record, to a plain stream holding one sample.
	plainWith := func(records ...byte) []byte {
		var p bytes.Buffer
		pw := bin.NewWriter(&p, testHeader)
		pw.Sample(bin.Sample{})
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		records = append(records, byte(bin.KindEnd), 0, 0, 0, 0)
		return append(binary.LittleEndian.AppendUint32(p.Bytes(), uint32(len(records))), records...)
	}
	if _, err := readAll(plainWith()); err != nil {
		t.Fatalf("plain stream without protocol records: %v", err)
	}
	if _, err := readAll(plainWith(byte(bin.KindTick), 0)); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("unannounced tick: got %v", err)
	}
	if _, err := readAll(plainWith(byte(bin.KindReplay), 0, 0, 0, 0, 0, 0)); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("late replay announcement: got %v", err)
	}

	pw := bin.NewWriter(io.Discard, testHeader)
	pw.Tick(1e9)
	if pw.Err() == nil {
		t.Fatal("plain writer accepted a protocol record")
	}
}

// TestReadLogRejectsDeepScreenTree: a tree record nested one level past the
// reader's bound (256) is a decode error, not unbounded recursion; a tree
// exactly at the limit still decodes.
func TestReadLogRejectsDeepScreenTree(t *testing.T) {
	const maxDepth = 256
	streamOf := func(depth int) []byte {
		root := &ui.Node{Class: "L"}
		for n, i := root, 1; i < depth; i++ {
			ch := &ui.Node{Class: "L"}
			n.Children = []*ui.Node{ch}
			n = ch
		}
		var buf bytes.Buffer
		w := bin.NewReplayWriter(&buf, testHeader, testReplay)
		w.Tree(0, 1, &ui.Screen{Activity: "A", Root: root})
		w.End(bin.End{})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := readAll(streamOf(maxDepth)); err != nil {
		t.Fatalf("tree at the depth limit rejected: %v", err)
	}
	deep := streamOf(maxDepth + 1)
	if _, err := readAll(deep); !errors.Is(err, bin.ErrCorrupt) {
		t.Fatalf("tree %d levels deep: got %v (%d-byte stream)", maxDepth+1, err, len(deep))
	}
}
