package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"taopt/internal/obs"
	"taopt/internal/trace/bin"
)

// refWrite is the encoding Write must reproduce byte for byte: an
// encoding/json Encoder with SetIndent("", " ").
func refWrite(t testing.TB, r *Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkwardStrings are string values whose escaping or whose scanning inside
// the indenter is easy to get wrong.
var awkwardStrings = []string{
	`"`, `\`, `\\"`, `a\"b\\`, `<>&`, "\u2028\u2029", "\x00\x01\x1f\x7f",
	"\xff\xfe", "bad\xc3(utf8", `{[,:]}`, `A`, "",
}

// awkwardRun puts every awkward string in each string field of a run.
func awkwardRun() *Run {
	r := &Run{Version: FormatVersion, App: `<app "x">`, Tool: `t\`, Setting: "\u2028", ScenarioHash: "\x7f\xff"}
	inst := Instance{InstanceSummary: bin.InstanceSummary{ID: 1, Crashes: []bin.Crash{{Signature: `"sig"`, Frames: awkwardStrings}}}}
	for i, s := range awkwardStrings {
		inst.Events = append(inst.Events, Event{AtNS: int64(i), Kind: "tap", Widget: s, To: uint64(i), Activity: s})
		r.Screens = append(r.Screens, bin.Screen{Sig: uint64(i), Activity: s, Nodes: i})
	}
	r.Instances = []Instance{inst}
	r.Telemetry = &Telemetry{
		Decisions: []obs.Decision{{Kind: "reject", Reason: `a"b\c<d>`}},
		Metrics:   []obs.Metric{{Name: "m\u2029", Type: "gauge", Value: -1.5e-9}},
	}
	return r
}

// TestWriteMatchesEncodingJSON pins Write to the Encoder it replaced: the
// pinned cells, runs with nil and with empty slices, and awkward strings.
func TestWriteMatchesEncodingJSON(t *testing.T) {
	runs := map[string]*Run{
		"nil slices": {},
		"empty slices": {
			Transport: &bin.Transport{},
			Telemetry: &Telemetry{Decisions: []obs.Decision{}, Metrics: []obs.Metric{}},
			Instances: []Instance{{Events: []Event{}}},
			Subspaces: []bin.Subspace{{Members: []uint64{}}},
			Timeline:  []bin.Sample{},
			Screens:   []bin.Screen{},
		},
		"awkward strings": awkwardRun(),
	}
	for name, cfg := range binCells() {
		_, runs[name] = runWithBinTrace(t, cfg)
	}
	chunked := false
	for name, r := range runs {
		got, want := jsonBytes(t, r), refWrite(t, r)
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Errorf("%s: Write differs from the Encoder at byte %d of %d (got %q, want %q)",
				name, n, len(want), got[n:min(n+40, len(got))], want[n:min(n+40, len(want))])
		}
		chunked = chunked || len(want) > 2*indentChunk
	}
	if !chunked {
		t.Fatal("no run spans more than two indent chunks")
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct {
	n, calls, afterFail int
	err                 error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n < 0 {
		w.afterFail++
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = -1
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteErrors(t *testing.T) {
	_, r := runWithBinTrace(t, binCells()["golden"])
	if n := len(refWrite(t, r)); n <= 40<<10 {
		t.Fatalf("golden export is %d bytes, too small to fail past 40 KiB", n)
	}
	full := errors.New("disk full")
	w := &failingWriter{n: 40 << 10, err: full}
	if err := r.Write(w); !errors.Is(err, full) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	if w.calls < 2 || w.afterFail != 0 {
		t.Fatalf("%d writes, %d after the failure: want the failure in a later chunk and no write after it", w.calls, w.afterFail)
	}

	bad := &Run{Telemetry: &Telemetry{Metrics: []obs.Metric{{Name: "m", Value: math.NaN()}}}}
	var buf bytes.Buffer
	if err := bad.Write(&buf); err == nil {
		t.Fatal("a NaN metric marshalled without error")
	}
	if buf.Len() != 0 {
		t.Fatalf("a failed marshal wrote %d bytes", buf.Len())
	}
}

// FuzzIndentJSON holds writeIndented to json.Indent (plus the Encoder's
// trailing newline) on the compact form of any valid JSON document.
func FuzzIndentJSON(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `1`, `"s"`, `null`, `[[[]],{}]`, ` { "a" : [ 1 , -2.5e+3 , true ] } `,
		`{"a":{"b":[{}]},"c\"\\":"x\\\"y","` + "\u2028" + `":"<>&","e":"\u00e9"}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(jsonBytes(f, awkwardRun()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact, want, got bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if err := writeIndented(&got, compact.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("writeIndented(%q) = %q, want %q", compact.Bytes(), got.Bytes(), want.Bytes())
		}
	})
}

// BenchmarkRunWrite measures the JSON export of the golden cell.
func BenchmarkRunWrite(b *testing.B) {
	_, r := runWithBinTrace(b, binCells()["golden"])
	events := 0
	for _, inst := range r.Instances {
		events += len(inst.Events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}
