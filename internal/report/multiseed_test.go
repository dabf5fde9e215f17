package report

import (
	"strings"
	"testing"

	"taopt/internal/harness"
	"taopt/internal/sim"
)

func TestMultiSeedAggregate(t *testing.T) {
	ms := harness.NewMultiSeed(harness.CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Tools:    []string{"monkey"},
		Duration: 6 * sim.Duration(60e9),
		Seed:     5,
	}, 2)
	if len(ms.Campaigns()) != 2 {
		t.Fatalf("Seeds = %d", len(ms.Campaigns()))
	}
	d, err := Aggregate(ms, "monkey", harness.TaOPTDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tool != "monkey" || d.Setting != harness.TaOPTDuration {
		t.Fatalf("identity: %+v", d)
	}
	if d.BaselineCoverage <= 0 {
		t.Fatal("baseline coverage not aggregated")
	}
	if d.CoveragePct < -100 || d.CoveragePct > 100 {
		t.Fatalf("implausible coverage delta %v", d.CoveragePct)
	}
	// Re-aggregation hits the campaign caches: results must be identical.
	d2, err := Aggregate(ms, "monkey", harness.TaOPTDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d != d2 {
		t.Fatal("re-aggregation differs (cache miss?)")
	}
}

func TestMultiSeedRender(t *testing.T) {
	ms := harness.NewMultiSeed(harness.CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Tools:    []string{"monkey"},
		Duration: 6 * sim.Duration(60e9),
		Seed:     5,
	}, 1)
	var sb strings.Builder
	if err := MultiSeed(&sb, ms, []harness.Setting{harness.TaOPTDuration}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Multi-seed aggregates", "monkey", "taopt-duration", "coverageΔ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMultiSeedUnknownTool(t *testing.T) {
	ms := harness.NewMultiSeed(harness.CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Duration: 6 * sim.Duration(60e9),
	}, 1)
	if _, err := Aggregate(ms, "nope", harness.TaOPTDuration); err == nil {
		t.Fatal("unknown tool must error")
	}
}
