package main

import (
	"strings"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/harness"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

func mustLookup(t *testing.T, name string) scenario.App {
	t.Helper()
	e, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The stdout summary must surface the scenario hash export v5 stamps, so a
// terminal run correlates with exported results and taoptd cache keys.
func TestSummarySurfacesScenarioHash(t *testing.T) {
	aut := apps.MustLoad("Filters For Selfie")
	res, err := harness.Run(harness.RunConfig{
		App:          aut,
		Tool:         "monkey",
		Setting:      harness.TaOPTDuration,
		Duration:     6 * sim.Duration(60e9),
		Seed:         2,
		ScenarioHash: mustLookup(t, "Filters For Selfie").Hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printSummary(&b, aut, "monkey", harness.TaOPTDuration, res)
	out := b.String()
	for _, want := range []string{
		"app:            Filters For Selfie",
		"tool:           monkey",
		"setting:        taopt-duration",
		"scenario hash:  " + mustLookup(t, "Filters For Selfie").Hash,
		"unique crashes:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// Code-built apps have no scenario document; the hash line must disappear
// rather than print an empty value.
func TestSummaryOmitsHashForCodeBuiltApps(t *testing.T) {
	aut := app.MotivatingExample()
	res, err := harness.Run(harness.RunConfig{
		App:      aut,
		Tool:     "monkey",
		Setting:  harness.BaselineParallel,
		Duration: 6 * sim.Duration(60e9),
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printSummary(&b, aut, "monkey", harness.BaselineParallel, res)
	if strings.Contains(b.String(), "scenario hash:") {
		t.Fatalf("hash line printed without a scenario document:\n%s", b.String())
	}
}
