package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taopt/internal/apps"
	"taopt/internal/faults"
	"taopt/internal/harness"
)

var updateDumpGolden = flag.Bool("update", false, "rewrite the replay -dump golden")

// TestReplayDumpGolden pins `tracetool replay -dump` of a short replayable
// chaos run: one line per record, every payload printed with %+v, so a
// field the decoder fills wrongly, or leaves over from an earlier record,
// shows up as a diff.
func TestReplayDumpGolden(t *testing.T) {
	fc := faults.DefaultConfig(0.2)
	fc.MinLife = 20 * time.Second
	fc.MaxLife = 40 * time.Second
	var trace bytes.Buffer
	if _, err := harness.Run(harness.RunConfig{
		App: apps.MustLoad("Filters For Selfie"), Tool: "monkey",
		Setting: harness.TaOPTDuration, Duration: time.Minute,
		Instances: 2, Seed: 15, Faults: &fc, Telemetry: true,
		BinTrace: &trace, Replayable: true,
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := dumpRecords(&got, bytes.NewReader(trace.Bytes())); err != nil {
		t.Fatalf("dump: %v", err)
	}
	golden := filepath.Join("testdata", "replay_dump.txt")
	if *updateDumpGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replay -dump drifted from golden:\n--- got ---\n%s--- want ---\n%s(run with -update after a deliberate change)", got.Bytes(), want)
	}
}
