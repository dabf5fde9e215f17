package bin

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

func testHeader() Header {
	return Header{
		App:          "Filters For Selfie",
		Tool:         "monkey",
		Setting:      "taopt-duration",
		Seed:         15,
		ScenarioHash: "deadbeef",
		Telemetry:    true,
		Faults:       true,
	}
}

func testEvent(i int) trace.Event {
	return trace.Event{
		Instance: i % 3,
		At:       sim.Duration(int64(i) * 1e6),
		Action: trace.Action{
			Kind:   trace.ActionKind(i % 3),
			Widget: ui.WidgetPath(fmt.Sprintf("path/%d", i%7)),
		},
		From:     ui.Signature(uint64(i % 11)),
		To:       ui.Signature(uint64(i % 13)),
		Activity: fmt.Sprintf("Activity%d", i%5),
		Crashed:  i%17 == 0,
		Enforced: i%19 == 0,
	}
}

// summarize writes the summaries of testEvent's three instances.
func summarize(w *Writer) {
	for id := 0; id < 3; id++ {
		w.Instance(InstanceSummary{ID: id})
	}
}

// TestRoundTripAllKinds drives every record kind through a write/read cycle
// and compares field by field.
func TestRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())

	events := make([]trace.Event, 50)
	for i := range events {
		events[i] = testEvent(i)
		w.Event(events[i])
	}
	samples := []Sample{
		{WallNS: 1e9, MachineNS: 3e9, Covered: 4, Crashes: 0},
		{WallNS: 2e9, MachineNS: 6e9, Covered: 9, Crashes: 1, AJS: 0.75},
	}
	for _, s := range samples {
		w.Sample(s)
	}
	decisions := []obs.Decision{
		{AtNS: 5e8, Kind: "allocate", Instance: 1, Sub: -1, Reason: "cold start"},
		{AtNS: 7e8, Kind: "accept-subspace", Instance: 2, Sub: 3, Entry: 11,
			Members: 4, Score: 0.9, Overlap: 0.1, Purity: 0.8, BackoffNS: 2e6, IdleNS: 9e5},
	}
	for _, d := range decisions {
		w.Decision(d)
	}
	instances := []InstanceSummary{
		{ID: 0, AllocatedNS: 0, ReleasedNS: 9e9, Coverage: 12},
		{ID: 1, AllocatedNS: 1e9, ReleasedNS: 8e9, Failed: true, Coverage: 7,
			Crashes: []Crash{{Signature: "NPE@Foo", AtNS: 4e9, Frames: []string{"Foo.bar", "Foo.baz"}}}},
		{ID: 2, AllocatedNS: 2e9, ReleasedNS: 9e9, Coverage: 3},
	}
	for _, s := range instances {
		w.Instance(s)
	}
	subspaces := []Subspace{
		{ID: 0, Entry: 11, Members: []uint64{3, 11, 12}, Owner: 2, FoundNS: 6e9},
	}
	for _, s := range subspaces {
		w.Subspace(s)
	}
	screens := []Screen{
		{Sig: 3, Activity: "Main", Nodes: 9},
		{Sig: 11, Activity: "Settings", Nodes: 4},
	}
	for _, s := range screens {
		w.Screen(s)
	}
	transport := Transport{
		Events: 50, Delivered: 48, Commands: 9, CommandFailures: 1, Dropped: 2,
		Delayed: 3, Deaths: 1, Hangs: 0, AllocFailures: 2, LostCommands: 1,
		FailedInstances: 1, OrphansPending: 0,
		CommandMix: &CommandMix{Allocate: 4, Deallocate: 3, BlockWidget: 1, Kill: 1},
	}
	w.Transport(transport)
	metrics := []obs.Metric{
		{Name: "alloc.count", Type: "counter", Value: 9, Count: 9},
		{Name: "observe.lat", Type: "histogram", Value: 42, Count: 7, Min: 1, Max: 12,
			Bounds: []float64{1, 5, 10}, Counts: []int64{2, 3, 1, 1},
			Points: []obs.SeriesPoint{{AtNS: 1e9, Value: 3}, {AtNS: 2e9, Value: 5}}},
	}
	for _, m := range metrics {
		w.Metric(m)
	}
	end := End{WallNS: 9e9, MachineNS: 27e9, Coverage: 14, UniqueCrashes: 1}
	w.End(end)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	wantHdr := testHeader()
	wantHdr.ExportVersion = ExportVersion
	if r.Header() != wantHdr {
		t.Fatalf("header = %+v, want %+v", r.Header(), wantHdr)
	}

	var gotEvents []trace.Event
	var gotSamples []Sample
	var gotDecisions []obs.Decision
	var gotInstances []InstanceSummary
	var gotSubspaces []Subspace
	var gotScreens []Screen
	var gotTransport *Transport
	var gotMetrics []obs.Metric
	var gotEnd *End
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		switch rec.Kind {
		case KindEvent:
			gotEvents = append(gotEvents, rec.Event)
		case KindSample:
			gotSamples = append(gotSamples, rec.Sample)
		case KindDecision:
			gotDecisions = append(gotDecisions, rec.Decision)
		case KindInstance:
			gotInstances = append(gotInstances, rec.Summary)
		case KindSubspace:
			gotSubspaces = append(gotSubspaces, rec.Subspace)
		case KindScreen:
			gotScreens = append(gotScreens, rec.Screen)
		case KindTransport:
			tr := rec.Transport
			gotTransport = &tr
		case KindMetric:
			gotMetrics = append(gotMetrics, rec.Metric)
		case KindEnd:
			e := rec.End
			gotEnd = &e
		default:
			t.Fatalf("unexpected record kind %v", rec.Kind)
		}
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events differ: got %d, want %d", len(gotEvents), len(events))
	}
	if !reflect.DeepEqual(gotSamples, samples) {
		t.Errorf("samples differ: %+v vs %+v", gotSamples, samples)
	}
	if !reflect.DeepEqual(gotDecisions, decisions) {
		t.Errorf("decisions differ: %+v vs %+v", gotDecisions, decisions)
	}
	if !reflect.DeepEqual(gotInstances, instances) {
		t.Errorf("instances differ: %+v vs %+v", gotInstances, instances)
	}
	if !reflect.DeepEqual(gotSubspaces, subspaces) {
		t.Errorf("subspaces differ: %+v vs %+v", gotSubspaces, subspaces)
	}
	if !reflect.DeepEqual(gotScreens, screens) {
		t.Errorf("screens differ: %+v vs %+v", gotScreens, screens)
	}
	if gotTransport == nil || !reflect.DeepEqual(*gotTransport, transport) {
		t.Errorf("transport differs: %+v vs %+v", gotTransport, transport)
	}
	if !reflect.DeepEqual(gotMetrics, metrics) {
		t.Errorf("metrics differ: %+v vs %+v", gotMetrics, metrics)
	}
	if gotEnd == nil || *gotEnd != end {
		t.Errorf("end differs: %+v vs %+v", gotEnd, end)
	}
}

// TestWriterMemoryBounded asserts the streaming promise: the writer's buffer
// never grows with run length. A 150k-event run must leave the same buffer
// capacity as a 10k-event run, and that capacity stays within a small
// constant of ChunkSize.
func TestWriterMemoryBounded(t *testing.T) {
	capAfter := func(n int) int {
		w := NewWriter(io.Discard, testHeader())
		for i := 0; i < n; i++ {
			w.Event(testEvent(i))
			if i%1000 == 0 {
				w.Sample(Sample{WallNS: int64(i) * 1e6, MachineNS: int64(i) * 3e6, Covered: i / 1000})
			}
		}
		w.End(End{WallNS: int64(n) * 1e6})
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return cap(w.buf)
	}
	small := capAfter(10_000)
	big := capAfter(150_000)
	if small != big {
		t.Errorf("buffer capacity grew with run length: %d after 10k events, %d after 150k", small, big)
	}
	if big > 2*ChunkSize {
		t.Errorf("buffer capacity %d exceeds 2x ChunkSize (%d)", big, 2*ChunkSize)
	}
}

// TestWriterSteadyStateAllocs asserts the hot path (event writes with
// already-interned strings) does not allocate per event.
func TestWriterSteadyStateAllocs(t *testing.T) {
	w := NewWriter(io.Discard, testHeader())
	for i := 0; i < 1000; i++ { // warm up intern tables and buffer
		w.Event(testEvent(i))
	}
	i := 1000
	avg := testing.AllocsPerRun(10_000, func() {
		w.Event(testEvent(i))
		i++
	})
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	// testEvent itself allocates its widget/activity strings via Sprintf; the
	// budget of 4 covers those, not writer work (the writer's own appends are
	// amortised zero once buf and the tables are warm).
	if avg > 4 {
		t.Errorf("steady-state Event allocates %.1f times per call, want <= 4", avg)
	}
}

// TestReaderMemoryBounded asserts the reader holds one chunk, not the
// stream: its chunk buffer stays at chunk scale for a 150k-event input.
func TestReaderMemoryBounded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	const n = 150_000
	for i := 0; i < n; i++ {
		w.Event(testEvent(i))
	}
	summarize(w)
	w.End(End{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	count := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		count++
	}
	if count != n+4 { // events + summaries + end
		t.Fatalf("decoded %d records, want %d", count, n+4)
	}
	if cap(r.chunk) > 2*ChunkSize {
		t.Errorf("reader chunk capacity %d exceeds 2x ChunkSize (%d); stream is %d bytes", cap(r.chunk), 2*ChunkSize, buf.Len())
	}
}

// TestReaderRejectsCorruption spot-checks the guard rails: truncation, bad
// magic, bad version, out-of-table refs all fail with ErrCorrupt and never
// panic.
func TestReaderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	for i := 0; i < 100; i++ {
		w.Event(testEvent(i))
	}
	summarize(w)
	w.End(End{WallNS: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[0] ^= 0xff
		if _, err := NewReader(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[len(Magic)] = 99
		if _, err := NewReader(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(full); cut += 37 {
			r, err := NewReader(bytes.NewReader(full[:len(full)-cut]))
			if err != nil {
				continue // truncated inside magic/header: fine, already failed
			}
			for {
				if _, err = r.Next(); err != nil {
					break
				}
			}
			if err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: err = %v, want EOF or ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for pos := len(Magic) + 1; pos < len(full); pos += 53 {
			b := append([]byte(nil), full...)
			b[pos] ^= 0x55
			r, err := NewReader(bytes.NewReader(b))
			if err != nil {
				continue
			}
			for {
				if _, err = r.Next(); err != nil {
					break
				}
			}
			// A flip may survive decode (it lands in a value, not the
			// framing); the guarantee under test is no panic and no hang.
		}
	})
}

// TestNextClearsOtherPayloads pins the in-place decoding contract: the
// record Next hands out holds its own kind's payload and nothing else, just
// like a fresh Record. The stream carries every surfaced kind, ground and
// protocol, each right after a record whose payload fields differ from its
// own, with every field of every payload set, so a payload the Reader fails
// to clear before decoding the next record shows up as a leftover field.
func TestNextClearsOtherPayloads(t *testing.T) {
	cfg := ReplayConfig{Instances: 3, MaxDevices: 2, DurationNS: 9e9, MachineBudgetNS: 27e9, SampleEveryNS: 1e9, CoreOverride: true}
	tree := &ui.Screen{Activity: "Main", Root: &ui.Node{
		Class: "Frame", ResourceID: "root", Text: "hi", Enabled: true, Clickable: true,
		Children: []*ui.Node{{Class: "Button", ResourceID: "ok", Text: "OK", Enabled: true}},
	}}
	ground := trace.Event{
		Instance: 1, At: 2e9, Action: trace.Action{Kind: trace.ActionKind(2), Widget: "root/ok"},
		From: 7, To: 9, Activity: "Main", Crashed: true, Enforced: true,
	}
	delivered := ground
	delivered.At = 3e9
	mix := &CommandMix{Allocate: 1, Deallocate: 2, BlockWidget: 3, BlockMember: 4, Kill: 5, Hang: 6}
	transport := Transport{
		Events: 1, Delivered: 2, Commands: 3, CommandFailures: 4, Dropped: 5, Delayed: 6,
		Deaths: 7, Hangs: 8, AllocFailures: 9, LostCommands: 10, FailedInstances: 11, OrphansPending: 12,
		CommandMix: mix,
	}
	want := []Record{
		{Kind: KindReplay, Replay: &cfg},
		{Kind: KindLease, At: 1e9, Lease: 1},
		{Kind: KindEvent, Event: ground},
		{Kind: KindTree, At: 2e9, Screen: Screen{Sig: 9}, Tree: tree},
		{Kind: KindCommand, At: 2e9, Command: &Command{Kind: 2, Instance: 1, Screen: 9, Widget: "root/ok", Coord: true}},
		{Kind: KindReply, At: 2e9, Reply: &Reply{Instance: 1, ErrClass: 3, Err: "farm busy"}},
		{Kind: KindSample, Sample: Sample{WallNS: 3e9, MachineNS: 6e9, Covered: 4, Crashes: 1, AJS: 0.5}},
		{Kind: KindDelivered, At: 3e9, Event: delivered},
		{Kind: KindTick, At: 4e9},
		{Kind: KindDecision, Decision: obs.Decision{
			AtNS: 4e9, Kind: "accept", Instance: 1, Sub: 2, Entry: 9, Members: 3,
			Score: 0.9, Overlap: 0.1, Purity: 0.8, Reason: "long", BackoffNS: 5, IdleNS: 6,
		}},
		{Kind: KindFate, At: 5e9, Command: &Command{Kind: 4, Instance: 1, Screen: 7, Widget: "root", Coord: false}},
		{Kind: KindScreen, Screen: Screen{Sig: 7, Activity: "Main", Nodes: 2}},
		{Kind: KindSubspace, Subspace: Subspace{ID: 1, Entry: 7, Owner: 1, FoundNS: 5e9, Members: []uint64{7, 9}}},
		{Kind: KindAccounting, At: 9e9, Transport: transport},
		{Kind: KindInstance, Summary: InstanceSummary{
			ID: 1, AllocatedNS: 1e9, ReleasedNS: 9e9, Failed: true, Coverage: 4,
			Crashes: []Crash{{Signature: "NPE@Main", AtNS: 2e9, Frames: []string{"Main.onClick"}}},
		}},
		{Kind: KindTransport, Transport: transport},
		{Kind: KindMetric, Metric: obs.Metric{
			Name: "observe.lat", Type: "histogram", Value: 42, Count: 7, Min: 1, Max: 12,
			Bounds: []float64{1, 5}, Counts: []int64{2, 3, 2},
			Points: []obs.SeriesPoint{{AtNS: 1e9, Value: 3}},
		}},
		{Kind: KindEnd, End: End{WallNS: 9e9, MachineNS: 27e9, Coverage: 4, UniqueCrashes: 1}},
	}

	var buf bytes.Buffer
	w := NewReplayWriter(&buf, testHeader(), cfg)
	for _, rec := range want[1:] {
		switch rec.Kind {
		case KindLease:
			w.Lease(rec.At, rec.Lease)
		case KindEvent:
			w.Event(rec.Event)
		case KindTree:
			w.Tree(rec.At, rec.Screen.Sig, rec.Tree)
		case KindCommand:
			w.Command(rec.At, *rec.Command)
		case KindReply:
			w.Reply(rec.At, *rec.Reply)
		case KindSample:
			w.Sample(rec.Sample)
		case KindDelivered:
			w.Delivered(rec.At, rec.Event)
		case KindTick:
			w.Tick(rec.At)
		case KindDecision:
			w.Decision(rec.Decision)
		case KindFate:
			w.Fate(rec.At, *rec.Command)
		case KindScreen:
			w.Screen(rec.Screen)
		case KindSubspace:
			w.Subspace(rec.Subspace)
		case KindAccounting:
			w.Accounting(rec.At, rec.Transport)
		case KindInstance:
			w.Instance(rec.Summary)
		case KindTransport:
			w.Transport(rec.Transport)
		case KindMetric:
			w.Metric(rec.Metric)
		case KindEnd:
			w.End(rec.End)
		default:
			t.Fatalf("fixture has no writer for %v", rec.Kind)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d (%v): %v", i, want[i].Kind, err)
		}
		if !reflect.DeepEqual(*rec, want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, *rec, want[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the end record: got %v, want io.EOF", err)
	}
}
