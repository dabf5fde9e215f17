package taopt

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"taopt/internal/export"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current run")

// telemetryRun executes the pinned chaos configuration: a seeded 20%-fault
// run with telemetry on, failure times compressed into the short lease so the
// death/hang/orphan/re-dedication branches all appear in the decision log.
func telemetryRun(t *testing.T) *RunResult {
	t.Helper()
	return telemetryRecord(t, nil)
}

// telemetryRecord executes the pinned chaos configuration, streaming its
// binary trace into binTrace when non-nil.
func telemetryRecord(t *testing.T, binTrace io.Writer) *RunResult {
	t.Helper()
	fc := DefaultFaultConfig(0.20)
	fc.MinLife = 1 * Minute
	fc.MaxLife = 5 * Minute
	res, err := Run(RunConfig{
		App:       LoadApp("Filters For Selfie"),
		Tool:      "monkey",
		Setting:   TaOPTDuration,
		Duration:  8 * Minute,
		Seed:      15,
		Faults:    &fc,
		Telemetry: true,
		BinTrace:  binTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecisionLogGolden pins the full decision log of a seeded chaos run:
// every consequential coordinator branch, in order, with its sim-clock
// timestamp. Any change to the coordinator's decision sequence — reordered
// guards, a new RNG draw, a timestamp source change — shows up as a diff.
// Regenerate with: go test -run DecisionLogGolden -update
func TestDecisionLogGolden(t *testing.T) {
	res := telemetryRun(t)
	var buf bytes.Buffer
	if err := res.Telemetry.DecisionLog().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "decisions_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
			line++
		}
		g, w := "<EOF>", "<EOF>"
		if line < len(gl) {
			g = string(gl[line])
		}
		if line < len(wl) {
			w = string(wl[line])
		}
		t.Fatalf("decision log diverges from golden at line %d:\n  got:  %s\n  want: %s\n(%d vs %d lines; regenerate with -update if the change is intended)",
			line+1, g, w, len(gl), len(wl))
	}
}

// TestDecisionViewMatchesGolden: the decision view rendered from the pinned
// chaos run's binary trace alone reproduces the golden decision log.
func TestDecisionViewMatchesGolden(t *testing.T) {
	var stream bytes.Buffer
	telemetryRecord(t, &stream)
	run, err := export.ReadBin(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run.Render(&got, "decisions"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "decisions_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("decision view of the binary trace differs from the golden (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestDecisionLogReproducible: two runs of the pinned configuration must emit
// byte-identical decision logs — the guarantee the CI stability step relies
// on, checked here without golden-file indirection.
func TestDecisionLogReproducible(t *testing.T) {
	var a, b bytes.Buffer
	if err := telemetryRun(t).Telemetry.DecisionLog().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := telemetryRun(t).Telemetry.DecisionLog().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs of the same seed emitted different decision logs")
	}
}

// TestChromeTraceValid writes the Chrome trace of a telemetry run and checks
// the JSON against the trace-event format: the envelope keys, required event
// fields, and the phase set the exporter emits (M metadata, X complete spans,
// i instants).
func TestChromeTraceValid(t *testing.T) {
	res := telemetryRun(t)
	tr := export.ChromeTrace(export.FromResult(res))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}

	var envelope struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Ts   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if envelope.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", envelope.DisplayTimeUnit)
	}
	if len(envelope.TraceEvents) != tr.Len() {
		t.Fatalf("envelope carries %d events, writer reported %d", len(envelope.TraceEvents), tr.Len())
	}
	phases := map[string]int{}
	for i, ev := range envelope.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil || ev.Ts == nil {
			t.Fatalf("event %d missing a required field: %+v", i, ev)
		}
		switch ev.Ph {
		case "M", "X", "i":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Fatalf("complete event %d has missing or negative dur", i)
		}
		phases[ev.Ph]++
	}
	// A chaos run must produce all three shapes: track names, lease/subspace
	// spans, and decision instants.
	for _, ph := range []string{"M", "X", "i"} {
		if phases[ph] == 0 {
			t.Fatalf("trace has no %q events (got %v)", ph, phases)
		}
	}
}

// TestTelemetryOffCostsNothing: with RunConfig.Telemetry unset the run must
// carry no telemetry at all — nil result field, no telemetry block in the
// export — and enabling it must not perturb the run's measurements (the nil
// sink and the live sink see the identical simulation).
func TestTelemetryOffCostsNothing(t *testing.T) {
	base := RunConfig{
		App:      LoadApp("Filters For Selfie"),
		Tool:     "monkey",
		Setting:  TaOPTDuration,
		Duration: 8 * Minute,
		Seed:     7,
	}
	off, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if off.Telemetry != nil {
		t.Fatal("telemetry-disabled run still carries a telemetry bundle")
	}
	var buf bytes.Buffer
	if err := export.FromResult(off).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, present := doc["telemetry"]; present {
		t.Fatal("telemetry-disabled export contains a telemetry block")
	}

	on := base
	on.Telemetry = true
	res, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Telemetry.DecisionLog().Len() == 0 {
		t.Fatal("telemetry-enabled run collected no decisions")
	}
	if res.Union.Count() != off.Union.Count() || res.UniqueCrashes != off.UniqueCrashes ||
		res.MachineUsed != off.MachineUsed || len(res.Subspaces) != len(off.Subspaces) {
		t.Fatalf("enabling telemetry changed the run: coverage %d vs %d, crashes %d vs %d, machine %v vs %v, subspaces %d vs %d",
			res.Union.Count(), off.Union.Count(), res.UniqueCrashes, off.UniqueCrashes,
			res.MachineUsed, off.MachineUsed, len(res.Subspaces), len(off.Subspaces))
	}
}
