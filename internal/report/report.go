// Package report regenerates every table and figure of the paper's
// preliminary study (Section 3) and evaluation (Section 6) from a harness
// campaign, printing the same rows and series the paper reports.
//
// Index (see DESIGN.md for the full mapping):
//
//	Figure3 — Jaccard similarity of covered methods over time, per tool
//	Table1  — UI-subspace exploration overlap histogram
//	Table2  — activity-based parallelization vs baseline (WCTester)
//	Figure5 — testing duration saved by TaOPT
//	Figure6 — machine time saved by TaOPT
//	Table4  — cumulative method coverage per app × tool × setting
//	Table5  — distinct crashes per app × tool × setting
//	Table6  — UI overlap per app × tool × setting
//	SingleLong — 5-hour non-parallel coverage comparison (RQ4 aside)
//	Preservation — behaviour preservation of TaOPT vs baseline (RQ5 aside)
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"taopt/internal/harness"
	"taopt/internal/metrics"
	"taopt/internal/sim"
)

// toolLabel maps registry names to the paper's column labels.
func toolLabel(tool string) string {
	switch tool {
	case "monkey":
		return "Mon."
	case "ape":
		return "Ape"
	case "wctester":
		return "WCT."
	default:
		return tool
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// taoptModes are TaOPT's two modes; compared adds the baseline they are
// measured against, first.
var (
	taoptModes = []harness.Setting{harness.TaOPTDuration, harness.TaOPTResource}
	compared   = append([]harness.Setting{harness.BaselineParallel}, taoptModes...)
)

// cellMap holds a campaign sub-grid's cells by key. Renderers index it and
// never range over it, so no output depends on map order.
type cellMap map[harness.CellKey]*harness.CellSummary

func (m cellMap) at(app, tool string, setting harness.Setting) *harness.CellSummary {
	return m[harness.CellKey{App: app, Tool: tool, Setting: setting}]
}

// cells computes the (apps × tools × settings) sub-grid of c on the
// campaign's worker pool and returns its cells; nil tools means the
// campaign's. It is the one place report reads campaign cells, so the one
// place that handles a Cell error.
func cells(c *harness.Campaign, tools []string, settings ...harness.Setting) (cellMap, error) {
	if err := c.Prefetch(tools, settings...); err != nil {
		return nil, err
	}
	if tools == nil {
		tools = c.Tools()
	}
	m := make(cellMap)
	for _, app := range c.Apps() {
		for _, tool := range tools {
			for _, setting := range settings {
				cell, err := c.Cell(app, tool, setting)
				if err != nil {
					return nil, err
				}
				m[cell.Key] = cell
			}
		}
	}
	return m, nil
}

// Figure3 prints the AJS-over-time series for baseline parallelization, one
// series per tool, averaged across the campaign's apps (the paper's Figure 3:
// overlap rises over the hour; Ape highest).
func Figure3(w io.Writer, c *harness.Campaign) error {
	m, err := cells(c, nil, harness.BaselineParallel)
	if err != nil {
		return err
	}
	header(w, "Figure 3: Overlaps of methods covered by different testing instances (baseline)")
	fmt.Fprintf(w, "%-12s", "time(s)")
	for _, tool := range c.Tools() {
		fmt.Fprintf(w, "%10s", toolLabel(tool))
	}
	fmt.Fprintln(w)

	// Sample the series at 10 evenly spaced times.
	dur := c.Config().Duration
	steps := 10
	for i := 1; i <= steps; i++ {
		at := dur * sim.Duration(i) / sim.Duration(steps)
		fmt.Fprintf(w, "%-12.0f", at.Seconds())
		for _, tool := range c.Tools() {
			var sum float64
			var n int
			for _, app := range c.Apps() {
				if v, ok := ajsAt(m.at(app, tool, harness.BaselineParallel).Timeline, at); ok {
					sum += v
					n++
				}
			}
			if n == 0 {
				fmt.Fprintf(w, "%10s", "-")
				continue
			}
			fmt.Fprintf(w, "%10.3f", sum/float64(n))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ajsAt returns the AJS of the latest sample at or before t.
func ajsAt(tl metrics.Timeline, t sim.Duration) (float64, bool) {
	var v float64
	found := false
	for _, p := range tl {
		if p.Wall > t {
			break
		}
		v = p.AJS
		found = true
	}
	return v, found
}

// Table1 prints the UI-subspace exploration overlap histogram aggregated
// over all (app, tool) baseline runs.
func Table1(w io.Writer, c *harness.Campaign) error {
	m, err := cells(c, nil, harness.BaselineParallel)
	if err != nil {
		return err
	}
	header(w, "Table 1: Overlaps of UI subspace exploration (baseline)")
	n := c.Config().Instances
	hist := make([]int, n)
	total := 0
	for _, tool := range c.Tools() {
		for _, app := range c.Apps() {
			for i, v := range m.at(app, tool, harness.BaselineParallel).OverlapHist {
				if i < n {
					hist[i] += v
					total += v
				}
			}
		}
	}
	fmt.Fprintf(w, "%-16s", "Overlap freq.")
	for k := 1; k <= n; k++ {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d/%d", k, n))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s", "# of subspaces")
	for _, v := range hist {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d (%.0f%%)", v, pct))
	}
	fmt.Fprintln(w)
	shared := 0
	for k := 1; k < n; k++ {
		shared += hist[k]
	}
	fmt.Fprintf(w, "Total subspaces: %d; explored by >1 instance: %d (%.0f%%)\n",
		total, shared, pct(shared, total))
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Table2 prints WCTester's method coverage under activity-based
// parallelization vs baseline, per app (the paper's Table 2: −28.5% average).
func Table2(w io.Writer, c *harness.Campaign) error {
	m, err := cells(c, []string{"wctester"}, harness.BaselineParallel, harness.ActivityPartition)
	if err != nil {
		return err
	}
	header(w, "Table 2: Method coverage of WCTester under activity-based parallelization")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App Name\tBaseline\tParallel\tRel. Improve.")
	var sumBase, sumPar int
	for _, app := range c.Apps() {
		base, par := m.at(app, "wctester", harness.BaselineParallel), m.at(app, "wctester", harness.ActivityPartition)
		sumBase += base.Union
		sumPar += par.Union
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+.1f%%\n", app, base.Union, par.Union, relDelta(base.Union, par.Union))
	}
	nApps := len(c.Apps())
	fmt.Fprintf(tw, "Average\t%d\t%d\t%+.1f%%\n", sumBase/nApps, sumPar/nApps, relDelta(sumBase, sumPar))
	return tw.Flush()
}

func relDelta(base, got int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(got-base) / float64(base)
}

// Figure5 prints the testing-duration savings statistics per tool and TaOPT
// mode (the paper's Figure 5 box plot, as summary rows).
func Figure5(w io.Writer, c *harness.Campaign) error {
	header(w, "Figure 5: Testing duration saved by TaOPT (percent of l_p)")
	return savingsFigure(w, c, true)
}

// Figure6 prints the machine-time savings statistics per tool and TaOPT mode
// (the paper's Figure 6).
func Figure6(w io.Writer, c *harness.Campaign) error {
	header(w, "Figure 6: Testing resources (machine time) saved by TaOPT (percent of budget)")
	return savingsFigure(w, c, false)
}

func savingsFigure(w io.Writer, c *harness.Campaign, duration bool) error {
	m, err := cells(c, nil, compared...)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tool\tMode\tMean\tMedian\tP25\tP75\tMin\tMax")
	lp := c.Config().Duration
	budget := sim.Duration(c.Config().Instances) * lp
	for _, tool := range c.Tools() {
		for _, setting := range taoptModes {
			var vals []float64
			for _, app := range c.Apps() {
				base, cell := m.at(app, tool, harness.BaselineParallel), m.at(app, tool, setting)
				var saved float64
				if duration {
					saved = metrics.DurationSaved(cell.Timeline, base.Union, lp)
				} else {
					saved = metrics.ResourceSaved(cell.Timeline, base.Union, budget)
				}
				vals = append(vals, 100*saved)
			}
			st := metrics.Summarize(vals)
			fmt.Fprintf(tw, "%s\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
				toolLabel(tool), setting, st.Mean, st.Median, st.P25, st.P75, st.Min, st.Max)
		}
	}
	return tw.Flush()
}

// Table4 prints cumulative code coverage per app × tool × setting with the
// paper's Δ annotations.
func Table4(w io.Writer, c *harness.Campaign) error {
	header(w, "Table 4: Statistics of cumulative code coverage")
	return perAppTable(w, c, func(cell *harness.CellSummary) float64 { return float64(cell.Union) }, countCell, countFooter)
}

// Table5 prints distinct crashes per app × tool × setting.
func Table5(w io.Writer, c *harness.Campaign) error {
	header(w, "Table 5: Statistics of distinct crashes")
	return perAppTable(w, c, func(cell *harness.CellSummary) float64 { return float64(cell.UniqueCrashes) }, countCell, countFooter)
}

// Table6 prints the UI overlap (average occurrences of distinct abstract
// UIs) per app × tool × setting, with the paper's Δ reduction row.
func Table6(w io.Writer, c *harness.Campaign) error {
	header(w, "Table 6: UI overlap measured by the average # of occurrences of distinct UIs")
	return perAppTable(w, c, func(cell *harness.CellSummary) float64 { return cell.UIOccAverage },
		func(v, _ float64) string { return fmt.Sprintf("%.1f", v) }, overlapFooter)
}

// countCell formats a Table 4/5 count with its change against the app's
// baseline value, when that is positive.
func countCell(v, base float64) string {
	if base > 0 {
		return fmt.Sprintf("%d (%+.0f%%)", int(v), 100*(v-base)/base)
	}
	return fmt.Sprintf("%d", int(v))
}

// countFooter prints Tables 4/5's average row, each TaOPT column with its
// change against the summed baseline of its tool.
func countFooter(tw io.Writer, sums []float64, nt int, nApps float64) {
	fmt.Fprint(tw, "Average")
	for i, s := range sums {
		if base := sums[i%nt]; i >= nt && base > 0 {
			fmt.Fprintf(tw, "\t%.0f (%+.1f%%)", s/nApps, 100*(s-base)/base)
		} else {
			fmt.Fprintf(tw, "\t%.0f", s/nApps)
		}
	}
	fmt.Fprintln(tw)
}

// overlapFooter prints Table 6's average row, then the Δ row: each TaOPT
// column's overlap reduction against the baseline of its tool.
func overlapFooter(tw io.Writer, sums []float64, nt int, nApps float64) {
	fmt.Fprint(tw, "Average")
	for _, s := range sums {
		fmt.Fprintf(tw, "\t%.1f", s/nApps)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Δ vs baseline")
	for i, s := range sums {
		if base := sums[i%nt]; i >= nt && base != 0 {
			fmt.Fprintf(tw, "\t%.1f%%", 100*(base-s)/base)
		} else {
			fmt.Fprint(tw, "\t-")
		}
	}
	fmt.Fprintln(tw)
}

// perAppTable renders the layout Tables 4–6 share: a column per setting ×
// tool (the baseline, then both TaOPT modes), a row per app and the rows
// footer prints from the column sums. cell formats a value given the app's
// baseline value for the column's tool, which is 0 in the baseline columns.
func perAppTable(w io.Writer, c *harness.Campaign, value func(*harness.CellSummary) float64,
	cell func(v, base float64) string, footer func(tw io.Writer, sums []float64, nt int, nApps float64)) error {
	m, err := cells(c, nil, compared...)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "App Name")
	for _, s := range compared {
		for _, tool := range c.Tools() {
			fmt.Fprintf(tw, "\t%s %s", s.Label(), toolLabel(tool))
		}
	}
	fmt.Fprintln(tw)

	nt := len(c.Tools())
	sums := make([]float64, len(compared)*nt)
	for _, app := range c.Apps() {
		fmt.Fprint(tw, app)
		i := 0
		for _, s := range compared {
			for _, tool := range c.Tools() {
				v, base := value(m.at(app, tool, s)), 0.0
				if s != harness.BaselineParallel {
					base = value(m.at(app, tool, harness.BaselineParallel))
				}
				sums[i] += v
				fmt.Fprint(tw, "\t"+cell(v, base))
				i++
			}
		}
		fmt.Fprintln(tw)
	}
	footer(tw, sums, nt, float64(len(c.Apps())))
	return tw.Flush()
}

// SingleLong prints the RQ4 aside: one 5-hour instance vs the parallel
// settings, averaged over apps.
func SingleLong(w io.Writer, c *harness.Campaign) error {
	settings := append([]harness.Setting{harness.SingleLong}, compared...)
	m, err := cells(c, nil, settings...)
	if err != nil {
		return err
	}
	header(w, "RQ4 aside: 5-hour non-parallel runs vs parallel runs (average coverage)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tool\tSingle 5h\tBaseline 5×1h\tTaOPT(D)\tTaOPT(R)")
	for _, tool := range c.Tools() {
		fmt.Fprint(tw, toolLabel(tool))
		for _, s := range settings {
			var sum float64
			for _, app := range c.Apps() {
				sum += float64(m.at(app, tool, s).Union)
			}
			fmt.Fprintf(tw, "\t%.0f", sum/float64(len(c.Apps())))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Preservation prints the RQ5 behaviour-preservation analysis: Jaccard
// similarity between baseline and TaOPT covered-method sets, and the
// fraction of baseline methods TaOPT misses.
func Preservation(w io.Writer, c *harness.Campaign) error {
	m, err := cells(c, nil, compared...)
	if err != nil {
		return err
	}
	header(w, "RQ5 aside: behaviour preservation (TaOPT vs baseline covered methods)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tool\tMode\tJaccard\tBaseline methods missed")
	for _, tool := range c.Tools() {
		for _, setting := range taoptModes {
			var sumJ, sumM float64
			for _, app := range c.Apps() {
				base, cell := m.at(app, tool, harness.BaselineParallel), m.at(app, tool, setting)
				j, missed := metrics.BehaviorPreservation(base.UnionSet, cell.UnionSet)
				sumJ += j
				sumM += missed
			}
			n := float64(len(c.Apps()))
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.1f%%\n", toolLabel(tool), setting, sumJ/n, 100*sumM/n)
		}
	}
	return tw.Flush()
}

// All regenerates every table and figure in paper order.
func All(w io.Writer, c *harness.Campaign) error {
	steps := []func(io.Writer, *harness.Campaign) error{
		Figure3, Table1, Table2, Figure5, Figure6, Table4, Table5, Table6, SingleLong, Preservation,
	}
	for _, step := range steps {
		if err := step(w, c); err != nil {
			return err
		}
	}
	return nil
}
