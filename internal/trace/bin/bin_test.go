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
