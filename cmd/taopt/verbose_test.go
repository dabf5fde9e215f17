package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/harness"
	"taopt/internal/sim"
)

var updateVerboseGolden = flag.Bool("update", false, "rewrite the -v golden")

// TestVerboseGolden pins taopt's -v output: the headline summary, the
// per-instance table and the ground-truth block (depth-decile visits and
// each identified subspace's span over the planted functionalities), for
// taopt -app "Filters For Selfie" -tool monkey -setting taopt-duration
// -duration 8 -seed 3 -v.
// Regenerate with: go test ./cmd/taopt -run VerboseGolden -update
func TestVerboseGolden(t *testing.T) {
	aut := apps.MustLoad("Filters For Selfie")
	res, err := harness.Run(harness.RunConfig{
		App:          aut,
		Tool:         "monkey",
		Setting:      harness.TaOPTDuration,
		Instances:    harness.DefaultInstances,
		Duration:     8 * sim.Duration(60e9),
		Seed:         3,
		ScenarioHash: mustLookup(t, "Filters For Selfie").Hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printSummary(&sb, aut, "monkey", harness.TaOPTDuration, res)
	printVerbose(&sb, aut, res)
	got := sb.String()

	path := filepath.Join("testdata", "verbose.txt")
	if *updateVerboseGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-v output diverges from %s (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
