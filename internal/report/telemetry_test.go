package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current run")

// telemetryRes runs the renderer's pinned configuration: one seeded chaos run
// with telemetry on, faults compressed into the 8-minute lease so the digest
// covers the full decision taxonomy.
func telemetryRes(t *testing.T) *harness.RunResult {
	t.Helper()
	minute := sim.Duration(60e9)
	fc := faults.DefaultConfig(0.20)
	fc.MinLife = 1 * minute
	fc.MaxLife = 5 * minute
	res, err := harness.Run(harness.RunConfig{
		App:       apps.MustLoad("Filters For Selfie"),
		Tool:      "monkey",
		Setting:   harness.TaOPTDuration,
		Duration:  8 * minute,
		Seed:      15,
		Faults:    &fc,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTelemetryRendererGolden pins the full rendered digest of a seeded chaos
// run. The renderer sorts everything it prints, so the output is byte-stable;
// regenerate with: go test ./internal/report -run TelemetryRendererGolden -update
func TestTelemetryRendererGolden(t *testing.T) {
	var sb strings.Builder
	if err := Telemetry(&sb, telemetryRes(t)); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "telemetry_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("rendered telemetry digest diverges from golden (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestTelemetryRendererWithoutTelemetry: the renderer must refuse a run that
// collected nothing instead of printing an empty digest.
func TestTelemetryRendererWithoutTelemetry(t *testing.T) {
	res, err := harness.Run(harness.RunConfig{
		App:      apps.MustLoad("Filters For Selfie"),
		Tool:     "monkey",
		Setting:  harness.BaselineParallel,
		Duration: 2 * sim.Duration(60e9),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Telemetry(&sb, res); err == nil {
		t.Fatal("renderer accepted a run without telemetry")
	}
}
