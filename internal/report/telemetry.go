package report

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"taopt/internal/harness"
	"taopt/internal/obs"
)

// Telemetry renders one run's observability digest: the coordinator's
// decision log aggregated by kind (with per-reason breakdowns where a kind
// carries one) followed by the metrics registry's snapshot. Everything is
// printed in sorted order from deterministic inputs, so the rendering of a
// seeded run is byte-stable.
func Telemetry(w io.Writer, res *harness.RunResult) error {
	tel := res.Telemetry
	if tel == nil {
		return fmt.Errorf("report: run carries no telemetry (enable RunConfig.Telemetry)")
	}
	log := tel.DecisionLog()

	header(w, "Telemetry: coordinator decision log")
	fmt.Fprintf(w, "decisions: %d\n", log.Len())
	byKind := log.CountByKind()
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, k := range kinds {
		fmt.Fprintf(tw, "  %s\t%d\n", k, byKind[k])
		reasons := log.CountByReason(k)
		rs := make([]string, 0, len(reasons))
		for r := range reasons {
			if r != "" {
				rs = append(rs, r)
			}
		}
		sort.Strings(rs)
		for _, r := range rs {
			fmt.Fprintf(tw, "    %s\t%d\n", r, reasons[r])
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	header(w, "Telemetry: metrics")
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, m := range tel.Registry().Snapshot() {
		switch m.Type {
		case "counter":
			fmt.Fprintf(tw, "  %s\t%.0f\n", m.Name, m.Value)
		case "gauge":
			fmt.Fprintf(tw, "  %s\t%g\n", m.Name, m.Value)
		case "histogram":
			mean := 0.0
			if m.Count > 0 {
				mean = m.Value / float64(m.Count)
			}
			fmt.Fprintf(tw, "  %s\tn=%d min=%.2f mean=%.2f max=%.2f\n",
				m.Name, m.Count, m.Min, mean, m.Max)
		case "series":
			last := obs.SeriesPoint{}
			if n := len(m.Points); n > 0 {
				last = m.Points[n-1]
			}
			fmt.Fprintf(tw, "  %s\tsamples=%d last=%g\n", m.Name, len(m.Points), last.Value)
		}
	}
	return tw.Flush()
}
