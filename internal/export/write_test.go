package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
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
		chunked = checkMatchesEncoder(t, name, r) > 2*indentChunk || chunked
	}
	if !chunked {
		t.Fatal("no run spans more than two indent chunks")
	}
}

// checkMatchesEncoder reports where Write's encoding of r first differs
// from refWrite's, and returns the length of refWrite's.
func checkMatchesEncoder(t *testing.T, name string, r *Run) int {
	t.Helper()
	got, want := jsonBytes(t, r), refWrite(t, r)
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Errorf("%s: Write differs from the Encoder at byte %d of %d (got %q, want %q)",
			name, n, len(want), got[n:min(n+40, len(got))], want[n:min(n+40, len(want))])
	}
	return len(want)
}

// fillFields sets every field of the struct v points to to a non-zero value,
// so a field the typed row writers leave out shows as a difference from the
// Encoder.
func fillFields(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("field" + strconv.Itoa(i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("%s.%s: fillFields has no value for a %s", rv.Type(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestRowsMatchEncodingJSON holds the typed event and timeline rows to the
// Encoder: rows with every field set, random events whose strings need
// escaping, every omitempty field both ways, and ajs values at and around
// encoding/json's switches between float formats.
func TestRowsMatchEncodingJSON(t *testing.T) {
	var full Event
	var sample bin.Sample
	fillFields(t, &full)
	fillFields(t, &sample)
	checkMatchesEncoder(t, "every field set", &Run{
		Instances: []Instance{{Events: []Event{full}}},
		Timeline:  []bin.Sample{sample},
	})

	rng := rand.New(rand.NewSource(1))
	// An awkward string, random bytes, or random ASCII from space to DEL,
	// where one " \ < > & or DEL among plain bytes is likely.
	str := func() string {
		mode := rng.Intn(3)
		if mode == 0 {
			return awkwardStrings[rng.Intn(len(awkwardStrings))]
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			if mode == 1 {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = byte(' ' + rng.Intn(96))
			}
		}
		return string(b)
	}
	r := &Run{Instances: make([]Instance, 3)}
	for i := range r.Instances {
		for j := 0; j < 200; j++ {
			ev := Event{AtNS: rng.Int63() - rng.Int63(), Kind: str(), Widget: str(), To: rng.Uint64(), Activity: str()}
			if rng.Intn(2) == 0 {
				ev.From = rng.Uint64()
			}
			ev.Crashed, ev.Enforced = rng.Intn(2) == 0, rng.Intn(2) == 0
			r.Instances[i].Events = append(r.Instances[i].Events, ev)
		}
	}
	checkMatchesEncoder(t, "random events", r)

	ajs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 1e-7, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6,
		1e20, 1e21, 9.999999999999999e20, 1.0000000000000001e21, 1.5e-300, -1e-7, -1e-6, -1e21, -123.456,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, math.MaxFloat64, -math.MaxFloat64,
	}
	for len(ajs) < 1000 {
		// Half span every exponent, half the magnitudes around 'f' and 'e'.
		f := math.Float64frombits(rng.Uint64())
		if len(ajs)%2 == 0 {
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-15))
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			ajs = append(ajs, f)
		}
	}
	r = &Run{}
	for i, f := range ajs {
		r.Timeline = append(r.Timeline, bin.Sample{WallNS: int64(i), MachineNS: -int64(i), Covered: i, Crashes: -i, AJS: f})
	}
	checkMatchesEncoder(t, "ajs values", r)
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

// TestWriteErrors pins Write's error contract: a failing writer gets its
// error back and no write after it, wherever it fails, and a value
// encoding/json cannot encode — even one written after more than a chunk of
// rows — fails Write before it writes a byte.
func TestWriteErrors(t *testing.T) {
	_, r := runWithBinTrace(t, binCells()["golden"])
	want := refWrite(t, r)
	if n := len(want); n <= 40<<10 {
		t.Fatalf("golden export is %d bytes, too small to fail past 40 KiB", n)
	}
	full := errors.New("disk full")
	for _, n := range []int{0, 40 << 10, len(want) - 1} {
		w := &failingWriter{n: n, err: full}
		if err := r.Write(w); !errors.Is(err, full) {
			t.Fatalf("failing at byte %d: Write returned %v, want the writer's error", n, err)
		}
		if w.afterFail != 0 {
			t.Fatalf("failing at byte %d: %d writes after the failure", n, w.afterFail)
		}
		if n == 40<<10 && w.calls < 2 {
			t.Fatalf("failing at byte %d: %d writes, want the failure in a later chunk", n, w.calls)
		}
	}

	if i := bytes.Index(want, []byte(`"timeline"`)); i <= indentChunk {
		t.Fatalf("golden timeline starts at byte %d, not past the first chunk", i)
	}
	bad := map[string]*Run{
		"NaN metric": {Telemetry: &Telemetry{Metrics: []obs.Metric{{Name: "m", Value: math.NaN()}}}},
	}
	for name, f := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		late := *r
		late.Timeline = append([]bin.Sample(nil), r.Timeline...)
		late.Timeline[len(late.Timeline)-1].AJS = f
		bad["late "+name+" ajs"] = &late
	}
	for name, r := range bad {
		var buf bytes.Buffer
		if err := r.Write(&buf); err == nil {
			t.Errorf("%s: Write returned no error", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: a failed Write wrote %d bytes", name, buf.Len())
		}
	}
}

// FuzzIndentJSON holds appendIndented to json.Indent on the compact form of
// any valid JSON document.
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
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndented(nil, compact.Bytes(), 0); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndented(%q) = %q, want %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

// BenchmarkRunWrite measures the JSON export of the golden cell.
func BenchmarkRunWrite(b *testing.B) {
	_, r := runWithBinTrace(b, binCells()["golden"])
	events := eventCount(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReadBin measures decoding the golden cell's binary trace back
// into a Run.
func BenchmarkReadBin(b *testing.B) {
	_, r := runWithBinTrace(b, binCells()["golden"])
	var stream bytes.Buffer
	if err := r.WriteBin(&stream); err != nil {
		b.Fatal(err)
	}
	events := eventCount(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBin(bytes.NewReader(stream.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/s")
}

func eventCount(r *Run) int {
	n := 0
	for _, inst := range r.Instances {
		n += len(inst.Events)
	}
	return n
}
