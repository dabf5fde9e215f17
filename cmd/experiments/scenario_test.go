package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taopt/internal/harness"
	"taopt/internal/report"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// readGridScenario compiles the checked-in default chaos-grid scenario.
func readGridScenario(t *testing.T) *scenario.Campaign {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "chaos-grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.CompileCampaign(raw)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChaosGridScenarioPinsDefault holds the checked-in grid scenario equal
// to report.DefaultChaosGrid — the documented guarantee that the chaos table
// is identical whether the grid comes from -scenario on that file or the
// built-in default — and pins its setting names to the harness vocabulary.
func TestChaosGridScenarioPinsDefault(t *testing.T) {
	sc := readGridScenario(t)
	grid := chaosGrid(sc)
	if want := report.DefaultChaosGrid(); !reflect.DeepEqual(grid, want) {
		t.Fatalf("scenario grid diverged from the built-in grid:\nfile %+v\nbuilt-in %+v", grid, want)
	}
	settings, err := harness.ScenarioSettings(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := []harness.Setting{harness.TaOPTDuration, harness.TaOPTResource}; !reflect.DeepEqual(settings, want) {
		t.Fatalf("scenario settings %v, want %v", settings, want)
	}
}

// TestChaosScenarioReportByteForByte renders the chaos experiment twice on
// the same small campaign — once under report.DefaultChaosGrid, once under
// the grid the scenario file declares — and requires identical bytes.
func TestChaosScenarioReportByteForByte(t *testing.T) {
	cfg := harness.CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Tools:    []string{"monkey"},
		Duration: 8 * sim.Duration(60e9),
		Seed:     3,
	}
	var legacy bytes.Buffer
	if err := report.ChaosGrid(&legacy, harness.NewCampaign(cfg), report.DefaultChaosGrid()); err != nil {
		t.Fatal(err)
	}
	grid := chaosGrid(readGridScenario(t))
	var scenic bytes.Buffer
	if err := report.ChaosGrid(&scenic, harness.NewCampaign(cfg), grid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), scenic.Bytes()) {
		t.Fatalf("scenario-driven chaos report differs from the legacy one:\n--- legacy\n%s\n--- scenario\n%s", legacy.Bytes(), scenic.Bytes())
	}
}

// TestScenarioCampaignLowering exercises the -scenario lowering path on the
// checked-in smoke campaign: inline apps join the app axis with their
// scenario hash, and explicit fields land on the campaign config.
func TestScenarioCampaignLowering(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "smoke-campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.CompileCampaign(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := harness.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Zedge", "Pocket Forecast"}; !reflect.DeepEqual(cfg.Apps, want) {
		t.Fatalf("apps %v, want %v", cfg.Apps, want)
	}
	sa, ok := cfg.ScenarioApps["Pocket Forecast"]
	if !ok {
		t.Fatal("inline app missing from ScenarioApps")
	}
	if sa.Hash != sc.Hash {
		t.Fatalf("inline app hash %q, want the campaign document hash %q", sa.Hash, sc.Hash)
	}
	if cfg.Instances != 4 || cfg.Seed != 7 || cfg.Duration != 10*sim.Duration(60e9) {
		t.Fatalf("lowered config %+v diverges from the file", cfg)
	}
}

// TestAblateResolvesInlineApps runs the ablation experiment on the smoke
// campaign's inline app: it must resolve like a campaign cell, from the
// scenario spec, and run the default row on exactly that app.
func TestAblateResolvesInlineApps(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "smoke-campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.CompileCampaign(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := harness.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Apps = []string{"Pocket Forecast"}
	cfg.Duration = 4 * sim.Duration(60e9)
	var out bytes.Buffer
	if err := ablateExperiment(&out, harness.NewCampaign(cfg)); err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(harness.RunConfig{
		App:       sc.InlineApps[0].Generate(),
		Tool:      "monkey",
		Setting:   harness.TaOPTDuration,
		Instances: cfg.Instances,
		Duration:  cfg.Duration,
		Seed:      cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("default (calibrated)%22d", res.Union.Count()); !strings.Contains(out.String(), want) {
		t.Fatalf("ablation output lacks the inline app's default row %q:\n%s", want, out.String())
	}
}
