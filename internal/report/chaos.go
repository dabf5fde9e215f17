package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/metrics"
)

// ChaosVariant is one column group of the chaos experiment: a labelled fault
// configuration the campaign grid is re-run under.
type ChaosVariant struct {
	Label  string
	Config faults.Config
}

// DefaultChaosGrid returns the paper-calibrated fault sweep: 0% is the
// (implicitly fault-free) setup; 5% models a healthy commercial device farm;
// 20% models the flaky in-house labs that Section 8's deployment notes warn
// about. The fault mix per rate is faults.DefaultConfig. Scenario files can
// express the same grid (testdata/scenarios/chaos-grid.json pins this by
// test) or sweep a custom one.
func DefaultChaosGrid() []ChaosVariant {
	out := make([]ChaosVariant, 0, 3)
	for _, rate := range []float64{0, 0.05, 0.20} {
		out = append(out, ChaosVariant{
			Label:  fmt.Sprintf("%.0f%%", 100*rate),
			Config: faults.DefaultConfig(rate),
		})
	}
	return out
}

// ChaosGrid prints the fault-injection experiment over an explicit variant
// grid: the campaign re-run under each variant, with coverage, crash and
// behaviour-preservation deltas against the first variant (the baseline row
// — by convention fault-free). A disabled variant config reuses the caller's
// campaign and its cache.
func ChaosGrid(w io.Writer, c *harness.Campaign, grid []ChaosVariant) error {
	if len(grid) == 0 {
		return fmt.Errorf("report: chaos grid is empty")
	}
	header(w, "Chaos: TaOPT under injected device-farm failures")

	byVariant := make([]cellMap, len(grid))
	for i, v := range grid {
		cc := c
		if v.Config.Enabled() {
			cfg := c.Config()
			fc := v.Config
			cfg.Faults = &fc
			cc = harness.NewCampaign(cfg)
		}
		var err error
		if byVariant[i], err = cells(cc, nil, taoptModes...); err != nil {
			return err
		}
	}

	for _, setting := range taoptModes {
		fmt.Fprintf(w, "\n%s\n", setting)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Tool\tFailure rate\tCoverage\tΔ cov.\tCrashes\tFailed inst.\tFaults\tOrphans\tJaccard vs fault-free")
		for _, tool := range c.Tools() {
			baseCov := 0.0
			for i, v := range grid {
				var cov, crashes, failed, injected, orphans float64
				var jacc float64
				for _, appName := range c.Apps() {
					cell := byVariant[i].at(appName, tool, setting)
					cov += float64(cell.Union)
					crashes += float64(cell.UniqueCrashes)
					failed += float64(cell.FailedInstances)
					injected += float64(cell.FaultsInjected)
					orphans += float64(cell.OrphansPending)
					jacc += metrics.Jaccard(byVariant[0].at(appName, tool, setting).UnionSet, cell.UnionSet)
				}
				n := float64(len(c.Apps()))
				if i == 0 {
					baseCov = cov
				}
				delta := "-"
				if i > 0 && baseCov > 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(cov-baseCov)/baseCov)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.0f\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
					toolLabel(tool), v.Label, cov/n, delta, crashes/n, failed/n, injected/n, orphans/n, jacc/n)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
