// Package corpus is the cross-run analytics layer over binary trace files
// (internal/trace/bin): it streams a whole directory of recorded runs in one
// pass — never holding more than one run's bounded summary in memory — and
// aggregates the signals that only exist at corpus scale: crash-signature
// clusters across runs, coverage-curve percentiles across seeds, and
// flakiness (the same scenario diverging in outcome across runs). This is
// the "thousands of concurrent hour-long runs" consumer the ROADMAP calls
// for; cmd/tracetool's corpus subcommand is its CLI.
//
// Every aggregation and its rendering are deterministic: runs are scanned in
// sorted filename order and every map is reduced through collect-and-sort,
// so the same corpus always renders byte-identically (the CI golden step
// diffs two generations of it).
package corpus

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"taopt/internal/trace/bin"
)

// Ext is the binary trace filename extension ScanDir selects on.
const Ext = ".taoptb"

// CurvePoint is one point of a run's coverage-over-virtual-time curve.
type CurvePoint struct {
	WallNS  int64
	Covered int
}

// RunStat is the bounded digest of one binary trace: identity, record
// counts, headline outcome, crash signatures and the coverage curve. It is
// what a one-pass scan keeps per run — never the events themselves.
type RunStat struct {
	// Path is the trace's base filename.
	Path   string
	Header bin.Header
	// Bytes is the stream length on disk.
	Bytes int64

	Events    int
	Samples   int
	Decisions int
	Instances int
	Screens   int
	Subspaces int
	Metrics   int

	WallNS        int64
	MachineNS     int64
	Coverage      int
	UniqueCrashes int

	// CrashSigs maps each crash signature to its occurrence count across
	// the run's instances.
	CrashSigs map[string]int

	// Curve is the covered-methods-over-wall-time curve from the timeline
	// samples, in sample order.
	Curve []CurvePoint
}

// Scan streams one binary trace and reduces it to its RunStat. name and
// size fill the Path and Bytes fields (callers reading from disk pass the
// base filename and file length). A stream bin.Reader rejects fails with
// its bin.ErrCorrupt, so Scan and export.ReadBin agree on which streams
// are well formed.
func Scan(r io.Reader, name string, size int64) (*RunStat, error) {
	br, err := bin.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", name, err)
	}
	st := &RunStat{
		Path:      name,
		Header:    br.Header(),
		Bytes:     size,
		CrashSigs: make(map[string]int),
	}
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		switch rec.Kind {
		case bin.KindEvent:
			st.Events++
		case bin.KindSample:
			st.Samples++
			st.Curve = append(st.Curve, CurvePoint{WallNS: rec.Sample.WallNS, Covered: rec.Sample.Covered})
		case bin.KindDecision:
			st.Decisions++
		case bin.KindInstance:
			st.Instances++
			for _, cr := range rec.Summary.Crashes {
				st.CrashSigs[cr.Signature]++
			}
		case bin.KindScreen:
			st.Screens++
		case bin.KindSubspace:
			st.Subspaces++
		case bin.KindMetric:
			st.Metrics++
		case bin.KindEnd:
			st.WallNS = rec.End.WallNS
			st.MachineNS = rec.End.MachineNS
			st.Coverage = rec.End.Coverage
			st.UniqueCrashes = rec.End.UniqueCrashes
		case bin.KindTransport:
			// Chaos transport accounting is export-level detail; corpus
			// stats aggregate run outcomes only.
		case bin.KindHeader, bin.KindStrDef, bin.KindSigDef,
			bin.KindReplay, bin.KindTree, bin.KindDelivered, bin.KindCommand, bin.KindFate,
			bin.KindReply, bin.KindLease, bin.KindTick, bin.KindAccounting:
			// The Reader consumes header and interning records itself, and
			// protocol records of a replayable trace describe the same run.
		}
	}
}

// ScanFile streams one binary trace file from disk.
func ScanFile(path string) (*RunStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return Scan(bufio.NewReaderSize(f, 64<<10), filepath.Base(path), info.Size())
}

// ScanDir streams every *.taoptb file of dir in sorted filename order —
// one pass, one run's digest in memory at a time.
func ScanDir(dir string) ([]*RunStat, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("corpus: no %s files in %s", Ext, dir)
	}
	out := make([]*RunStat, 0, len(names))
	for _, name := range names {
		st, err := ScanFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// cellKey groups runs that differ only in seed: the scenario identity (the
// canonical content hash when the run carried one, the app name otherwise)
// plus tool and setting.
func cellKey(st *RunStat) string {
	id := st.Header.App
	if h := st.Header.ScenarioHash; h != "" {
		if len(h) > 12 {
			h = h[:12]
		}
		id = st.Header.App + "#" + h
	}
	return id + "/" + st.Header.Tool + "/" + st.Header.Setting
}

// coverageAt reads the run's coverage at wall time t: the last sample at or
// before t (coverage is monotone within a run).
func coverageAt(st *RunStat, t int64) int {
	cov := 0
	for _, p := range st.Curve {
		if p.WallNS > t {
			break
		}
		cov = p.Covered
	}
	return cov
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// outcome is a run's comparable result: clean, or the sorted set of crash
// signatures it hit.
func outcome(st *RunStat) string {
	if len(st.CrashSigs) == 0 {
		return "clean"
	}
	sigs := make([]string, 0, len(st.CrashSigs))
	for sig := range st.CrashSigs {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return "crash{" + strings.Join(sigs, ",") + "}"
}

// Render writes the corpus analytics: the corpus summary, cross-run
// crash-signature clusters, per-cell coverage-curve percentiles, and
// flakiness (cells whose runs diverge in outcome). Output is deterministic
// for a given corpus.
func Render(w io.Writer, stats []*RunStat) error {
	if len(stats) == 0 {
		return fmt.Errorf("corpus: nothing to render")
	}
	var events, bytes int64
	for _, st := range stats {
		events += int64(st.Events)
		bytes += st.Bytes
	}
	fmt.Fprintf(w, "corpus: %d runs, %d events, %d bytes binary (%.1f bytes/event)\n",
		len(stats), events, bytes, float64(bytes)/float64(max64(events, 1)))

	renderCrashClusters(w, stats)
	renderCoveragePercentiles(w, stats)
	renderFlakiness(w, stats)
	return nil
}

// renderCrashClusters aggregates crash signatures across every run: the
// cross-run view that separates a crash every seed hits from a one-off.
func renderCrashClusters(w io.Writer, stats []*RunStat) {
	type cluster struct {
		runs  int
		hits  int
		cells map[string]bool
	}
	clusters := make(map[string]*cluster)
	for _, st := range stats {
		sigs := make([]string, 0, len(st.CrashSigs))
		for sig := range st.CrashSigs {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			c := clusters[sig]
			if c == nil {
				c = &cluster{cells: make(map[string]bool)}
				clusters[sig] = c
			}
			c.runs++
			c.hits += st.CrashSigs[sig]
			c.cells[cellKey(st)] = true
		}
	}
	fmt.Fprintf(w, "\ncrash clusters (%d distinct signatures across %d runs):\n", len(clusters), len(stats))
	if len(clusters) == 0 {
		fmt.Fprintln(w, "  none")
		return
	}
	sigs := make([]string, 0, len(clusters))
	for sig := range clusters {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		a, b := clusters[sigs[i]], clusters[sigs[j]]
		if a.runs != b.runs {
			return a.runs > b.runs
		}
		return sigs[i] < sigs[j]
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  SIGNATURE\tRUNS\tOCCURRENCES\tCELLS")
	for _, sig := range sigs {
		c := clusters[sig]
		fmt.Fprintf(tw, "  %s\t%d/%d\t%d\t%d\n", sig, c.runs, len(stats), c.hits, len(c.cells))
	}
	tw.Flush()
}

// renderCoveragePercentiles reduces each cell's seeds to p50/p90/p99
// coverage at quarter checkpoints of the cell's longest run.
func renderCoveragePercentiles(w io.Writer, stats []*RunStat) {
	groups := make(map[string][]*RunStat)
	for _, st := range stats {
		groups[cellKey(st)] = append(groups[cellKey(st)], st)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Fprintf(w, "\ncoverage percentiles across seeds (screens over virtual time, nearest rank):\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  CELL\tSEEDS\tT\tP50\tP90\tP99")
	for _, k := range keys {
		runs := groups[k]
		var maxWall int64
		for _, st := range runs {
			maxWall = max64(maxWall, st.WallNS)
		}
		for _, frac := range []int64{25, 50, 75, 100} {
			t := maxWall * frac / 100
			covs := make([]int, len(runs))
			for i, st := range runs {
				covs[i] = coverageAt(st, t)
			}
			sort.Ints(covs)
			label := k
			if frac != 25 {
				label = ""
			}
			fmt.Fprintf(tw, "  %s\t%d\t%3d%%\t%d\t%d\t%d\n",
				label, len(runs), frac,
				percentile(covs, 0.50), percentile(covs, 0.90), percentile(covs, 0.99))
		}
	}
	tw.Flush()
}

// renderFlakiness flags cells — same scenario hash (or app), tool and
// setting — whose runs disagree on outcome: some crash, some don't, or they
// crash differently.
func renderFlakiness(w io.Writer, stats []*RunStat) {
	groups := make(map[string][]*RunStat)
	for _, st := range stats {
		groups[cellKey(st)] = append(groups[cellKey(st)], st)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	flaky := 0
	var buf strings.Builder
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	for _, k := range keys {
		runs := groups[k]
		if len(runs) < 2 {
			continue
		}
		byOutcome := make(map[string]int)
		for _, st := range runs {
			byOutcome[outcome(st)]++
		}
		if len(byOutcome) < 2 {
			continue
		}
		flaky++
		outs := make([]string, 0, len(byOutcome))
		for o := range byOutcome {
			outs = append(outs, o)
		}
		sort.Slice(outs, func(i, j int) bool {
			if byOutcome[outs[i]] != byOutcome[outs[j]] {
				return byOutcome[outs[i]] > byOutcome[outs[j]]
			}
			return outs[i] < outs[j]
		})
		parts := make([]string, len(outs))
		for i, o := range outs {
			parts[i] = fmt.Sprintf("%d× %s", byOutcome[o], o)
		}
		fmt.Fprintf(tw, "  %s\t%d seeds\t%s\n", k, len(runs), strings.Join(parts, "; "))
	}
	tw.Flush()
	fmt.Fprintf(w, "\nflaky cells (same scenario, divergent outcome): %d\n", flaky)
	if flaky > 0 {
		io.WriteString(w, buf.String())
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
