package export

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/corpus"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
)

var updateBinGolden = flag.Bool("update", false, "rewrite the binary-trace golden digests")

// binCells are the pinned configurations the lossless round-trip and the
// golden digests cover: the fault-free sample, the chaos/telemetry golden
// cell, and a telemetry-only run.
func binCells() map[string]harness.RunConfig {
	app := apps.MustLoad("Filters For Selfie")
	fc := faults.DefaultConfig(0.2)
	fc.MinLife = 1 * sim.Duration(60e9)
	fc.MaxLife = 5 * sim.Duration(60e9)
	return map[string]harness.RunConfig{
		"golden": {
			App: app, Tool: "monkey", Setting: harness.TaOPTDuration,
			Duration: 6 * sim.Duration(60e9), Seed: 4,
		},
		"chaos": {
			App: app, Tool: "monkey", Setting: harness.TaOPTDuration,
			Duration: 8 * sim.Duration(60e9), Seed: 15,
			Faults: &fc, Telemetry: true,
		},
		"telemetry": {
			App: app, Tool: "ape", Setting: harness.TaOPTResource,
			Duration: 5 * sim.Duration(60e9), Seed: 7, Telemetry: true,
		},
	}
}

// runWithBinTrace executes cfg with a binary trace attached and returns the
// live stream bytes plus the direct export.
func runWithBinTrace(t testing.TB, cfg harness.RunConfig) ([]byte, *Run) {
	t.Helper()
	var stream bytes.Buffer
	cfg.BinTrace = &stream
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stream.Bytes(), FromResult(res)
}

func jsonBytes(t testing.TB, r *Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func binBytes(t *testing.T, r *Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteBin(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinRoundTripLossless is the tentpole contract: every view of the run
// rebuilt from the live binary stream (JSON v5, Chrome trace, decision log)
// is byte-identical to the same view of the direct export, and the
// canonical binary form is an encode/decode fixed point.
func TestBinRoundTripLossless(t *testing.T) {
	for name, cfg := range binCells() {
		t.Run(name, func(t *testing.T) {
			stream, direct := runWithBinTrace(t, cfg)

			fromStream, err := ReadBin(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("ReadBin(live stream): %v", err)
			}
			for _, view := range Views {
				if view == "decisions" && !cfg.Telemetry {
					continue
				}
				var want, got bytes.Buffer
				if err := direct.Render(&want, view); err != nil {
					t.Fatalf("%s view of the direct export: %v", view, err)
				}
				if err := fromStream.Render(&got, view); err != nil {
					t.Fatalf("%s view of the live stream: %v", view, err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("live binary stream renders a different %s view (%d vs %d bytes)", view, got.Len(), want.Len())
				}
			}
			directJSON := jsonBytes(t, direct)

			// bin -> Run -> bin fixed point on the canonical form.
			b1 := binBytes(t, direct)
			back, err := ReadBin(bytes.NewReader(b1))
			if err != nil {
				t.Fatalf("ReadBin(canonical): %v", err)
			}
			b2 := binBytes(t, back)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("canonical binary form is not a fixed point (%d vs %d bytes)", len(b1), len(b2))
			}
			// The live stream re-encodes to the same canonical bytes.
			if b3 := binBytes(t, fromStream); !bytes.Equal(b1, b3) {
				t.Fatalf("live stream re-encodes to different canonical bytes (%d vs %d)", len(b3), len(b1))
			}

			t.Logf("%s: JSON %d bytes, binary %d bytes (%.1fx smaller)", name, len(directJSON), len(b1), float64(len(directJSON))/float64(len(b1)))
		})
	}
}

// TestBinGoldenDigests pins the canonical binary bytes of the golden cells.
// Any codec change — record layout, interning, chunking, delta scheme —
// must consciously refresh these with -update (and bump bin.Version if the
// layout changed incompatibly).
func TestBinGoldenDigests(t *testing.T) {
	cells := binCells()
	var lines []byte
	for _, name := range []string{"golden", "chaos", "telemetry"} {
		_, direct := runWithBinTrace(t, cells[name])
		sum := sha256.Sum256(binBytes(t, direct))
		lines = append(lines, fmt.Sprintf("%s %s\n", name, hex.EncodeToString(sum[:]))...)
	}
	path := filepath.Join("testdata", "bintrace_golden.txt")
	if *updateBinGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(lines, want) {
		t.Fatalf("binary-trace digests changed:\n got:\n%s want:\n%s(run with -update after a deliberate codec change)", lines, want)
	}
}

// TestBinRoundTripCatalog sweeps the full app catalog at a small budget:
// every app's live stream must decode to the byte-identical JSON export.
func TestBinRoundTripCatalog(t *testing.T) {
	names := apps.Names()
	if len(names) < 18 {
		t.Fatalf("catalog has %d apps, want >= 18", len(names))
	}
	minutes := sim.Duration(3 * 60e9)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := harness.RunConfig{
				App: apps.MustLoad(name), Tool: "monkey",
				Setting: harness.TaOPTDuration, Duration: minutes,
				Instances: 3, Seed: int64(100 + i),
				Telemetry: i%3 == 0,
			}
			stream, direct := runWithBinTrace(t, cfg)
			fromStream, err := ReadBin(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("ReadBin: %v", err)
			}
			if !bytes.Equal(jsonBytes(t, direct), jsonBytes(t, fromStream)) {
				t.Fatal("live binary stream decodes to a different export")
			}
		})
	}
}

// TestMalformedStreamsRejected: bin.Reader alone decides which streams are
// well formed, so every consumer rejects the same malformed streams with
// bin.ErrCorrupt — ReadBin, corpus.Scan, and Replay on the replayable
// variant of each stream — instead of dropping or double-counting records.
func TestMalformedStreamsRejected(t *testing.T) {
	ev := func(inst int, at sim.Duration) trace.Event {
		return trace.Event{Instance: inst, At: at, Activity: "Main"}
	}
	// secondHeader is one chunk holding a header and an end record.
	var second bytes.Buffer
	sw := bin.NewWriter(&second, bin.Header{App: "again"})
	sw.End(bin.End{})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	secondHeader := second.Bytes()[len(bin.Magic)+1:]

	cases := []struct {
		name  string
		write func(w *bin.Writer)
		tail  []byte // raw chunks appended after the writer's output
	}{
		{"record after end", func(w *bin.Writer) {
			w.Event(ev(0, 1))
			w.Instance(bin.InstanceSummary{ID: 0})
			w.End(bin.End{})
			w.Event(ev(1, 2))
			w.Sample(bin.Sample{})
		}, nil},
		{"header mid-stream", func(w *bin.Writer) { w.Sample(bin.Sample{}) }, secondHeader},
		{"missing end", func(w *bin.Writer) {
			w.Event(ev(0, 1))
			w.Instance(bin.InstanceSummary{ID: 0})
		}, nil},
		{"orphan events", func(w *bin.Writer) {
			w.Event(ev(0, 1))
			w.Event(ev(3, 1))
			w.Instance(bin.InstanceSummary{ID: 0})
			w.End(bin.End{})
		}, nil},
		{"orphan events of an instance ID past MaxInt64", func(w *bin.Writer) {
			w.Event(ev(-1, 1)) // the uvarint of -1 decodes as a negative ID
			w.End(bin.End{})
		}, nil},
		{"duplicate summary", func(w *bin.Writer) {
			w.Event(ev(0, 1))
			w.Instance(bin.InstanceSummary{ID: 0})
			w.Instance(bin.InstanceSummary{ID: 0})
			w.End(bin.End{})
		}, nil},
		{"event after its summary", func(w *bin.Writer) {
			w.Event(ev(0, 1))
			w.Instance(bin.InstanceSummary{ID: 0})
			w.Event(ev(0, 2))
			w.End(bin.End{})
		}, nil},
		{"decision without telemetry flag", func(w *bin.Writer) {
			w.Decision(obs.Decision{Kind: "allocate"})
			w.End(bin.End{})
		}, nil},
		{"transport without faults flag", func(w *bin.Writer) {
			w.Transport(bin.Transport{Events: 1})
			w.End(bin.End{})
		}, nil},
	}
	h := bin.Header{App: "a", Tool: "monkey", Setting: "baseline"} // no coordinator to re-drive
	build := func(replayable bool, write func(*bin.Writer), tail []byte) []byte {
		var buf bytes.Buffer
		var w *bin.Writer
		if replayable {
			w = bin.NewReplayWriter(&buf, h, bin.ReplayConfig{MaxDevices: 1})
		} else {
			w = bin.NewWriter(&buf, h)
		}
		write(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), tail...)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := build(false, c.write, c.tail)
			if _, err := ReadBin(bytes.NewReader(data)); !errors.Is(err, bin.ErrCorrupt) {
				t.Errorf("ReadBin: got %v, want bin.ErrCorrupt", err)
			}
			if _, err := corpus.Scan(bytes.NewReader(data), c.name, int64(len(data))); !errors.Is(err, bin.ErrCorrupt) {
				t.Errorf("corpus.Scan: got %v, want bin.ErrCorrupt", err)
			}
			data = build(true, c.write, c.tail)
			if _, _, err := Replay(bytes.NewReader(data)); !errors.Is(err, bin.ErrCorrupt) {
				t.Errorf("Replay: got %v, want bin.ErrCorrupt", err)
			}
		})
	}
}

// FuzzTraceBinCodec fuzzes ReadBin and Replay over arbitrary bytes: neither
// may panic, Replay fails only with a typed error, and whenever a stream
// decodes cleanly, corpus.Scan accepts it too and counts the same events,
// and encode∘decode must be a fixed point from the first re-encode on. The
// seeds add a replayable chaos trace and truncated copies of it to the
// plain streams.
func FuzzTraceBinCodec(f *testing.F) {
	cells := binCells()
	for _, name := range []string{"golden", "chaos"} {
		cfg := cells[name]
		var stream bytes.Buffer
		cfg.BinTrace = &stream
		if _, err := harness.Run(cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(stream.Bytes())
		if len(stream.Bytes()) > 256 {
			f.Add(stream.Bytes()[:256]) // truncated prefix
		}
	}
	f.Add([]byte(bin.Magic))
	f.Add([]byte{})
	cfg := cells["chaos"]
	var replayable bytes.Buffer
	cfg.Duration, cfg.Instances = 2*sim.Duration(60e9), 2 // a small seed mutates faster
	cfg.BinTrace, cfg.Replayable = &replayable, true
	if _, err := harness.Run(cfg); err != nil {
		f.Fatal(err)
	}
	raw := replayable.Bytes()
	f.Add(raw)
	for _, n := range []int{len(raw) / 2, 4096, 256} {
		f.Add(raw[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := Replay(bytes.NewReader(data)); err != nil &&
			!errors.Is(err, bin.ErrCorrupt) && !errors.Is(err, ErrNotReplayable) && !errors.Is(err, ErrDiverged) {
			t.Fatalf("untyped replay error: %v", err)
		}
		run, err := ReadBin(bytes.NewReader(data))
		if err != nil {
			return // corrupt input rejected: fine, as long as no panic
		}
		st, err := corpus.Scan(bytes.NewReader(data), "fuzz", int64(len(data)))
		if err != nil {
			t.Fatalf("ReadBin accepts a stream corpus.Scan rejects: %v", err)
		}
		if events := eventCount(run); events != st.Events {
			t.Fatalf("ReadBin keeps %d events, corpus.Scan counts %d", events, st.Events)
		}
		var b1 bytes.Buffer
		if err := run.WriteBin(&b1); err != nil {
			t.Fatalf("re-encoding a cleanly decoded stream: %v", err)
		}
		back, err := ReadBin(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own re-encode: %v", err)
		}
		var b2 bytes.Buffer
		if err := back.WriteBin(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}

// FuzzExportRead fuzzes the JSON reader over arbitrary bytes: it must never
// panic, TraceLogs must be safe on whatever it accepts, Write must match
// the Encoder it replaced (refWrite) on it, and Write∘Read must be a fixed
// point from the first re-encode on.
func FuzzExportRead(f *testing.F) {
	cells := binCells()
	for _, name := range []string{"golden", "chaos", "telemetry"} {
		_, direct := runWithBinTrace(f, cells[name])
		var buf bytes.Buffer
		if err := direct.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:256]) // truncated prefix
	}
	f.Add([]byte(`{"version": 5}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := Read(bytes.NewReader(data))
		if err != nil {
			return // corrupt input rejected: fine, as long as no panic
		}
		run.TraceLogs()
		var b1 bytes.Buffer
		if err := run.Write(&b1); err != nil {
			t.Fatalf("re-encoding a cleanly decoded document: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), refWrite(t, run)) {
			t.Fatal("Write differs from the Encoder")
		}
		back, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own re-encode: %v", err)
		}
		var b2 bytes.Buffer
		if err := back.Write(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("Write∘Read is not a fixed point")
		}
	})
}
