package report

import (
	"fmt"
	"io"

	"taopt/internal/harness"
	"taopt/internal/metrics"
	"taopt/internal/sim"
)

// Delta summarises one (tool, setting) aggregate against the baseline.
type Delta struct {
	Tool    string
	Setting harness.Setting
	// CoveragePct, CrashesPct and OverlapPct are percentage changes of the
	// summed metric vs the summed baseline (negative overlap = reduction).
	CoveragePct float64
	CrashesPct  float64
	OverlapPct  float64
	// BaselineCoverage is the per-app average baseline coverage, for scale.
	BaselineCoverage float64
	// DurationSavedPct and ResourceSavedPct are the mean RQ3/RQ4 savings.
	DurationSavedPct float64
	ResourceSavedPct float64
}

// Aggregate computes tool's deltas for setting across every seed campaign
// and app of ms.
func Aggregate(ms *harness.MultiSeed, tool string, setting harness.Setting) (Delta, error) {
	seedCells, err := multiSeedCells(ms, []string{tool}, setting)
	if err != nil {
		return Delta{Tool: tool, Setting: setting}, err
	}
	return aggregate(ms, seedCells, tool, setting)
}

// MultiSeed prints the multi-seed aggregate table: one row of deltas
// against the baseline per tool and setting.
func MultiSeed(w io.Writer, ms *harness.MultiSeed, settings []harness.Setting) error {
	seedCells, err := multiSeedCells(ms, nil, settings...)
	if err != nil {
		return err
	}
	cfg := ms.Campaigns()[0].Config()
	fmt.Fprintf(w, "\nMulti-seed aggregates: %d seeds × %d apps\n", len(seedCells), len(cfg.Apps))
	fmt.Fprintf(w, "%-10s%-18s%12s%12s%12s%12s%12s\n",
		"tool", "setting", "coverageΔ", "crashesΔ", "overlapΔ", "dur.saved", "res.saved")
	for _, tool := range cfg.Tools {
		for _, setting := range settings {
			d, err := aggregate(ms, seedCells, tool, setting)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s%-18s%+11.1f%%%+11.1f%%%+11.1f%%%11.1f%%%11.1f%%\n",
				tool, setting.String(), d.CoveragePct, d.CrashesPct, d.OverlapPct,
				d.DurationSavedPct, d.ResourceSavedPct)
		}
	}
	return nil
}

// multiSeedCells fetches the baseline and settings cells of every seed
// campaign of ms, in seed order.
func multiSeedCells(ms *harness.MultiSeed, tools []string, settings ...harness.Setting) ([]cellMap, error) {
	var out []cellMap
	for _, c := range ms.Campaigns() {
		m, err := cells(c, tools, append([]harness.Setting{harness.BaselineParallel}, settings...)...)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func aggregate(ms *harness.MultiSeed, seedCells []cellMap, tool string, setting harness.Setting) (Delta, error) {
	d := Delta{Tool: tool, Setting: setting}
	var baseCov, cov, baseCr, cr, baseOv, ov float64
	var durSaved, resSaved []float64
	n := 0
	for i, c := range ms.Campaigns() {
		lp := c.Config().Duration
		budget := lp * sim.Duration(c.Config().Instances)
		for _, app := range c.Apps() {
			b, t := seedCells[i].at(app, tool, harness.BaselineParallel), seedCells[i].at(app, tool, setting)
			baseCov += float64(b.Union)
			cov += float64(t.Union)
			baseCr += float64(b.UniqueCrashes)
			cr += float64(t.UniqueCrashes)
			baseOv += b.UIOccAverage
			ov += t.UIOccAverage
			durSaved = append(durSaved, 100*metrics.DurationSaved(t.Timeline, b.Union, lp))
			resSaved = append(resSaved, 100*metrics.ResourceSaved(t.Timeline, b.Union, budget))
			n++
		}
	}
	if n == 0 || baseCov == 0 {
		return d, fmt.Errorf("report: no cells aggregated for %s/%s", tool, setting)
	}
	d.CoveragePct = 100 * (cov - baseCov) / baseCov
	if baseCr > 0 {
		d.CrashesPct = 100 * (cr - baseCr) / baseCr
	}
	if baseOv > 0 {
		d.OverlapPct = 100 * (ov - baseOv) / baseOv
	}
	d.BaselineCoverage = baseCov / float64(n)
	d.DurationSavedPct = metrics.Summarize(durSaved).Mean
	d.ResourceSavedPct = metrics.Summarize(resSaved).Mean
	return d, nil
}
