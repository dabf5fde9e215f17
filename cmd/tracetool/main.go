// Command tracetool analyses recorded runs offline. A run record is either
// a binary trace (*.taoptb, cmd/taopt -bintrace) or a JSON export rendered
// from one; every single-run command reads both. The render command turns
// a record into its views: the JSON export, a Perfetto-loadable Chrome
// trace, or the decision log as JSONL. partition rebuilds the UI
// transition graph, applies the preliminary study's conservative
// min-conductance partition and reports per-subspace exploration overlap
// and AJS; decisions cross-checks the decision log against the run's
// outcome. The replay command re-drives a replayable trace (taopt
// -replayable) into the run's export, or dumps any trace one line per
// record. The corpus command streams a directory of *.taoptb files
// (cmd/experiments -bintrace-dir) in one pass and reports crash-signature
// clusters across runs, coverage-curve percentiles across seeds, and flaky
// cells whose outcome diverges for the same scenario.
//
// Usage:
//
//	taopt -app Zedge -tool ape -setting baseline -telemetry -bintrace run.taoptb
//	tracetool render -view json run.taoptb > run.json
//	tracetool render -view chrome run.taoptb > run.trace.json
//	tracetool render -view decisions run.taoptb > decisions.jsonl
//	tracetool run.taoptb
//	tracetool partition -min-coupling 0.12 run.json
//	tracetool decisions run.taoptb
//	tracetool replay -out replayed.json run.taoptb
//	tracetool replay -dump run.taoptb
//	tracetool corpus traces/
//	tracetool help
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"taopt/internal/cli"
	"taopt/internal/corpus"
	"taopt/internal/export"
	"taopt/internal/graph"
	"taopt/internal/metrics"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// command is one tracetool subcommand: the dispatch table below is the
// single source for both routing and the help/usage listing.
type command struct {
	name    string
	args    string
	summary string
	run     func(args []string)
}

// commands is ordered; help prints it as-is. The help entry is appended in
// init because its closure refers back to this table via usage.
var commands = []command{
	{"partition", "[flags] <run>", "offline UI-subspace partition of a recorded run (default command)", partitionMain},
	{"decisions", "<run>", "replay the recorded decision log against the run's recorded outcome", decisionsMain},
	{"render", "[-view json|chrome|decisions] <run>", "write one view of a run record to stdout", renderMain},
	{"replay", "[-out run.json] [-dump] <run" + corpus.Ext + ">", "re-drive a replayable trace into its export, or dump its records", replayMain},
	{"corpus", "<dir>", "cross-run analytics over a directory of binary traces (*" + corpus.Ext + ")", corpusMain},
}

func init() {
	commands = append(commands, command{"help", "", "show this table", func([]string) {
		usage(os.Stdout)
		os.Exit(0)
	}})
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: tracetool <command> [flags] <args>")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, c := range commands {
		fmt.Fprintf(tw, "  %s %s\t%s\n", c.name, c.args, c.summary)
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A <run> is a binary trace (*"+corpus.Ext+") or a JSON export; a bare <run>")
	fmt.Fprintln(w, "argument runs the partition command.")
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	for _, c := range commands {
		if c.name == args[0] {
			c.run(args[1:])
			return
		}
	}
	// A bare run (possibly preceded by partition flags) keeps working.
	partitionMain(args)
}

// readRun decodes one run record: a binary trace when the file opens with
// the bin magic, a JSON export otherwise.
func readRun(path string) *export.Run {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	read := export.Read
	if bytes.HasPrefix(data, []byte(bin.Magic)) {
		read = export.ReadBin
	}
	run, err := read(bytes.NewReader(data))
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return run
}

func renderMain(args []string) {
	fs := flag.NewFlagSet("tracetool render", flag.ExitOnError)
	view := fs.String("view", "json", "view to write: "+strings.Join(export.Views, " | "))
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: tracetool render [-view %s] <run>", strings.Join(export.Views, "|"))
	}
	w := bufio.NewWriter(os.Stdout)
	if err := readRun(fs.Arg(0)).Render(w, *view); err != nil {
		fatalf("%v", err)
	}
	if err := w.Flush(); err != nil {
		fatalf("%v", err)
	}
}

func partitionMain(args []string) {
	fs := flag.NewFlagSet("tracetool partition", flag.ExitOnError)
	coupling := fs.Float64("min-coupling", graph.DefaultPartitionOptions().MaxCoupling,
		"inter-region flow threshold below which regions stay separate")
	minGroup := fs.Int("min-group", graph.DefaultPartitionOptions().MinGroupSize,
		"fold groups smaller than this into their strongest neighbour")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: tracetool partition [flags] <run> (tracetool help lists all commands)")
	}
	run := readRun(fs.Arg(0))

	fmt.Printf("run:       %s / %s / %s (seed %d)\n", run.App, run.Tool, run.Setting, run.Seed)
	fmt.Printf("coverage:  %d methods, %d unique crashes\n", run.Coverage, run.UniqueCrashes)
	fmt.Printf("instances: %d\n", len(run.Instances))
	total := 0
	for _, inst := range run.Instances {
		total += len(inst.Events)
	}
	fmt.Printf("events:    %d transitions over %d distinct screens\n", total, len(run.Screens))

	analyse(run, graph.PartitionOptions{MaxCoupling: *coupling, MinGroupSize: *minGroup})
}

func decisionsMain(args []string) {
	fs := flag.NewFlagSet("tracetool decisions", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: tracetool decisions <run>")
	}
	if !checkDecisions(readRun(fs.Arg(0))) {
		os.Exit(1)
	}
}

func corpusMain(args []string) {
	fs := flag.NewFlagSet("tracetool corpus", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: tracetool corpus <dir> (a directory of *%s binary traces)", corpus.Ext)
	}
	stats, err := corpus.ScanDir(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	if err := corpus.Render(os.Stdout, stats); err != nil {
		fatalf("%v", err)
	}
}

func analyse(run *export.Run, opts graph.PartitionOptions) {
	logs := run.TraceLogs()
	b := graph.NewBuilder()
	for _, l := range logs {
		b.AddTrace(l)
	}
	g := b.Graph()
	part := graph.OfflinePartition(g, opts)

	activityOf := make(map[uint64]string, len(run.Screens))
	for _, s := range run.Screens {
		activityOf[s.Sig] = s.Activity
	}

	explored := part.ExploredBy(g, logs)
	fmt.Printf("\noffline UI-subspace partition (%d subspaces, MC-GPP objective %.4f):\n",
		part.GroupCount(), graph.MaxPairwiseConductance(g, part))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  SUBSPACE\tSCREENS\tEXPLORED BY\tDOMINANT ACTIVITY")
	for gi, grp := range part.Groups {
		fmt.Fprintf(tw, "  %d\t%d\t%d/%d instances\t%s\n",
			gi, len(grp), len(explored[gi]), len(logs), dominantActivity(g, grp, activityOf))
	}
	tw.Flush()

	hist := metrics.OverlapHistogram(explored, len(logs))
	fmt.Printf("\noverlap frequency histogram (Table 1 layout):\n  ")
	for k, v := range hist {
		fmt.Printf("%d/%d:%d  ", k+1, len(logs), v)
	}
	fmt.Println()

	if n := len(run.Timeline); n > 0 && run.Timeline[n-1].AJS > 0 {
		fmt.Printf("\nfinal AJS across instances: %.3f\n", run.Timeline[n-1].AJS)
	}
}

// checkDecisions replays the exported decision log and cross-checks it
// against the run's recorded outcome: timestamps must be non-decreasing
// (virtual time never runs backwards), every referenced instance must exist,
// each accepted subspace in the log must match an exported subspace (same
// entry, no shrinking member count — later merges only grow it), and every
// accepted entry screen must be a vertex of the transition graph rebuilt
// from the exported traces. Returns false (after printing each mismatch)
// when any check fails.
func checkDecisions(run *export.Run) bool {
	if run.Telemetry == nil {
		fatalf("run carries no telemetry block (re-record with taopt -telemetry -bintrace)")
	}
	decisions := run.Telemetry.Decisions
	fmt.Printf("run:       %s / %s / %s (seed %d)\n", run.App, run.Tool, run.Setting, run.Seed)
	fmt.Printf("decisions: %d logged\n", len(decisions))

	byKind := make(map[string]int)
	for _, d := range decisions {
		byKind[d.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, k := range kinds {
		fmt.Fprintf(tw, "  %s\t%d\n", k, byKind[k])
	}
	tw.Flush()

	instances := make(map[int]bool, len(run.Instances))
	for _, inst := range run.Instances {
		instances[inst.ID] = true
	}
	subspaces := make(map[int]bin.Subspace, len(run.Subspaces))
	for _, sub := range run.Subspaces {
		subspaces[sub.ID] = sub
	}
	b := graph.NewBuilder()
	for _, l := range run.TraceLogs() {
		b.AddTrace(l)
	}
	g := b.Graph()

	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Printf("MISMATCH: "+format+"\n", args...)
	}

	var lastAt int64
	accepts := 0
	for i, d := range decisions {
		if d.AtNS < lastAt {
			fail("decision %d (%s) at %dns precedes its predecessor at %dns", i, d.Kind, d.AtNS, lastAt)
		}
		lastAt = d.AtNS
		if d.Instance >= 0 && !instances[d.Instance] {
			fail("decision %d (%s) references unknown instance %d", i, d.Kind, d.Instance)
		}
		if d.Kind != "accept" {
			continue
		}
		accepts++
		sub, found := subspaces[d.Sub]
		if !found {
			fail("accepted subspace %d is not in the export", d.Sub)
			continue
		}
		if sub.Entry != d.Entry {
			fail("subspace %d entry: decision log says %d, export says %d", d.Sub, d.Entry, sub.Entry)
		}
		if len(sub.Members) < d.Members {
			fail("subspace %d shrank: accepted with %d members, exported with %d (merges only grow it)",
				d.Sub, d.Members, len(sub.Members))
		}
		if _, inGraph := g.VertexOf(ui.Signature(d.Entry)); !inGraph {
			fail("subspace %d entry %d is not a vertex of the rebuilt transition graph", d.Sub, d.Entry)
		}
	}
	if accepts != len(run.Subspaces) {
		fail("decision log accepts %d subspaces, export records %d", accepts, len(run.Subspaces))
	}

	if ok {
		fmt.Printf("replay:    OK — %d accepts match %d exported subspaces, timestamps monotone, all instances known\n",
			accepts, len(run.Subspaces))
	}
	return ok
}

func dominantActivity(g *graph.Graph, grp []int, activityOf map[uint64]string) string {
	counts := make(map[string]int)
	for _, v := range grp {
		counts[activityOf[uint64(g.Sigs[v])]]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) == 0 {
		return "-"
	}
	return keys[0]
}

var fatalf = cli.Fatalf("tracetool")
