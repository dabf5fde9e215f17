package report

import (
	"strings"
	"testing"

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
