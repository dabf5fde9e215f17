package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/sim"
)

// tinyCampaign runs a fast two-app campaign (short budgets) shared by all
// renderer tests via sync caching inside the campaign.
func tinyCampaign() *harness.Campaign {
	return harness.NewCampaign(harness.CampaignConfig{
		Apps:     []string{"Filters For Selfie", "Marvel Comics"},
		Tools:    []string{"monkey", "wctester"},
		Duration: 8 * sim.Duration(60e9),
		Seed:     3,
	})
}

func TestRenderersProduceTables(t *testing.T) {
	c := tinyCampaign()
	cases := map[string]struct {
		fn   func(w *strings.Builder, c *harness.Campaign) error
		want []string
	}{
		"fig3":   {func(w *strings.Builder, c *harness.Campaign) error { return Figure3(w, c) }, []string{"Figure 3", "Mon.", "WCT."}},
		"table1": {func(w *strings.Builder, c *harness.Campaign) error { return Table1(w, c) }, []string{"Table 1", "Overlap freq.", "5/5"}},
		"table2": {func(w *strings.Builder, c *harness.Campaign) error { return Table2(w, c) }, []string{"Table 2", "Marvel Comics", "Average"}},
		"fig5":   {func(w *strings.Builder, c *harness.Campaign) error { return Figure5(w, c) }, []string{"Figure 5", "taopt-duration", "taopt-resource"}},
		"fig6":   {func(w *strings.Builder, c *harness.Campaign) error { return Figure6(w, c) }, []string{"Figure 6", "Mean"}},
		"table4": {func(w *strings.Builder, c *harness.Campaign) error { return Table4(w, c) }, []string{"Table 4", "TaOPT(D) Mon.", "Average"}},
		"table5": {func(w *strings.Builder, c *harness.Campaign) error { return Table5(w, c) }, []string{"Table 5", "crashes"}},
		"table6": {func(w *strings.Builder, c *harness.Campaign) error { return Table6(w, c) }, []string{"Table 6", "Δ vs baseline"}},
		"single": {func(w *strings.Builder, c *harness.Campaign) error { return SingleLong(w, c) }, []string{"5-hour", "Single 5h"}},
		"preserve": {func(w *strings.Builder, c *harness.Campaign) error { return Preservation(w, c) },
			[]string{"behaviour preservation", "Jaccard"}},
	}
	for name, tc := range cases {
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			if err := tc.fn(&sb, c); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
			// Every renderer emits one row per app or per tool — at least
			// several lines.
			if strings.Count(out, "\n") < 3 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestTable4DeltasConsistent(t *testing.T) {
	c := tinyCampaign()
	var sb strings.Builder
	if err := Table4(&sb, c); err != nil {
		t.Fatal(err)
	}
	// Re-rendering from the cache must be identical (cells cached).
	var sb2 strings.Builder
	if err := Table4(&sb2, c); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatal("re-rendered table differs: cells not cached deterministically")
	}
}

// TestChaosRenderer exercises the fault-injection table on a one-app
// campaign: it must print all three failure rates and reproduce exactly
// across invocations (the chaos campaigns derive their plans from the same
// campaign seed).
func TestChaosRenderer(t *testing.T) {
	render := func() string {
		c := harness.NewCampaign(harness.CampaignConfig{
			Apps:     []string{"Filters For Selfie"},
			Tools:    []string{"monkey"},
			Duration: 8 * sim.Duration(60e9),
			Seed:     3,
		})
		var sb strings.Builder
		if err := ChaosGrid(&sb, c, DefaultChaosGrid()); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := render()
	for _, want := range []string{"Chaos", "0%", "5%", "20%", "Jaccard vs fault-free", "taopt-duration", "taopt-resource"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
	if again := render(); again != out {
		t.Fatalf("chaos table not reproducible:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

// TestChaosGridIgnoresCallerFaults renders the chaos grid from a campaign
// that injects faults of its own: every variant replaces them, so the 0% row
// reports no faults and the table matches the fault-free caller's byte for
// byte.
func TestChaosGridIgnoresCallerFaults(t *testing.T) {
	render := func(fc *faults.Config) string {
		c := harness.NewCampaign(harness.CampaignConfig{
			Apps:     []string{"Filters For Selfie"},
			Tools:    []string{"monkey"},
			Duration: 8 * sim.Duration(60e9),
			Seed:     3,
			Faults:   fc,
		})
		var sb strings.Builder
		if err := ChaosGrid(&sb, c, DefaultChaosGrid()); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	fc := faults.DefaultConfig(0.3)
	faulty := render(&fc)
	rows := 0
	for _, line := range strings.Split(faulty, "\n") {
		if f := strings.Fields(line); len(f) > 6 && f[1] == "0%" {
			rows++
			if f[6] != "0.0" {
				t.Errorf("0%% row reports %s faults: %q", f[6], line)
			}
		}
	}
	if rows != len(taoptModes) {
		t.Fatalf("found %d 0%% rows, want %d:\n%s", rows, len(taoptModes), faulty)
	}
	if clean := render(nil); faulty != clean {
		t.Fatalf("caller's faults leak into the chaos grid:\n--- faulty caller\n%s\n--- fault-free caller\n%s", faulty, clean)
	}
}

// TestRenderGolden pins the bytes of every campaign renderer over the tiny
// campaign: All, the default chaos grid and the two-seed multi-seed table.
// Regenerate with: go test ./internal/report -run RenderGolden -update
func TestRenderGolden(t *testing.T) {
	c := tinyCampaign()
	var sb strings.Builder
	if err := All(&sb, c); err != nil {
		t.Fatal(err)
	}
	if err := ChaosGrid(&sb, c, DefaultChaosGrid()); err != nil {
		t.Fatal(err)
	}
	if err := MultiSeed(&sb, harness.NewMultiSeed(c.Config(), 2), taoptModes); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "tiny.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("rendered tables diverge from golden (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", got, want)
	}
}
