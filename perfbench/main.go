// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads against the program's public packages, checks every
// output, and prints the figures:
//
//   - grid: a campaign grid on the fleet pool (the cmd/experiments path);
//   - service-hit: closed-loop clients re-submitting warm documents to an
//     in-process taoptd over loopback HTTP (the cache read path);
//   - service-mixed: the same with a seeded ~1 in 10 new configurations,
//     some sent by both clients at once so they coalesce;
//   - corpus: scanning and rendering a binary-trace corpus, and rendering
//     every trace back to its JSON export.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload untraced and then traced, and reports per-layer metrics from
// its own spans around each call, a Repository timing decorator,
// runtime/metrics, fixed probes of each module's public functions and a CPU
// profile folded by package.
//
// Build and run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; setup_s
// is the median. A set-up lasts about a second, so one slow stretch of the
// host can move a median of three.
const setupReps = 5

// parts is how many parts an untraced timed phase is cut into, each rescaled
// by the host speed measured around it.
const parts = 8

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by untraced runs, for every workload. What one
// unit of throughput and one latency sample are depends on the workload;
// see the workload table.
var e2eMetrics = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_p90_mb", "MiB"},
	{"setup_s", "s"},
}

// layerMetrics are reported by traced runs, for every workload. A metric a
// workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{shareMetric(l), "fraction"})
	}
	return append(out, []metricDef{
		{"gc.cpu_fraction", "fraction"},
		{"bench.trace_overhead_pct", "%"},
		{"harness.cell_ms_p50", "ms"},
		{"harness.cell_ms_max", "ms"},
		{"harness.alloc_bytes_per_event", "B"},
		{"fleet.parallel_efficiency", "fraction"},
		{"fleet.tail_idle_s", "s"},
		{"fleet.serial_events_per_s", "1/s"},
		{"fleet.speedup", "x"},
		{"fleet.gap_s", "s"},
		{"fleet.gap_tail_s", "s"},
		{"fleet.gap_gc_s", "s"},
		{"fleet.gap_rest_s", "s"},
		{"fleet.old8_w1_events_per_s", "1/s"},
		{"fleet.old8_w4_events_per_s", "1/s"},
		{"app.generate_ms", "ms"},
		{"scenario.compile_us", "us"},
		{"harness.lower_ms", "ms"},
		{"graph.partition_ms", "ms"},
		{"core.observe_ns", "ns"},
		{"bin.encode_events_per_s", "1/s"},
		{"bin.decode_events_per_s", "1/s"},
		{"bin.bytes_per_event", "B"},
		{"export.json_encode_events_per_s", "1/s"},
		{"export.json_decode_events_per_s", "1/s"},
		{"export.json_bytes_per_event", "B"},
		{"service.submit_ms", "ms"},
		{"service.export_ms", "ms"},
		{"service.get_cell_ms", "ms"},
		{"service.get_cell_calls_per_req", "count"},
		{"service.get_cell_mb", "MiB"},
		{"service.put_cell_ms", "ms"},
		{"service.hit_ratio", "fraction"},
		{"service.coalesced", "count"},
		{"service.computed", "count"},
		{"service.compute_ms", "ms"},
		{"service.miss_wait_ms", "ms"},
		{"service.hit_speedup_vs_compute", "x"},
		{"corpus.scan_ms", "ms"},
		{"corpus.render_ms", "ms"},
		{"export.read_bin_ms", "ms"},
		{"export.write_json_ms", "ms"},
	}...)
}()

// figure is one named measurement printed in the human-readable report.
type figure struct {
	name  string
	value float64
	unit  string
}

// window is one slice of a timed phase: a grid or corpus pass, or a run of
// consecutive service completions.
type window struct {
	dur  time.Duration
	work float64   // units of work done (what throughput_per_s counts)
	lat  []float64 // one latency sample per op completed in the window, ms
}

// phase is what one timed phase of a workload measured. Throughput is the
// median over its windows, so a few seconds of a slow host move it less
// than a mean would; latency percentiles are taken over all its samples.
type phase struct {
	windows []window
	// classes holds latency samples (ms) of op classes a workload reports
	// apart, such as cache hits and misses.
	classes   map[string][]float64
	coalesced int // submits the service coalesced onto another's compute
	ops       int
	failed    int
	// digest hashes every simulated outcome the phase produced or served;
	// it must not depend on timing.
	digest string
}

// rate is the median over windows of work per second.
func (p *phase) rate() float64 {
	var rs []float64
	for _, w := range p.windows {
		rs = append(rs, w.work/w.dur.Seconds())
	}
	return median(rs)
}

// work is the phase's total work.
func (p *phase) work() float64 {
	sum := 0.0
	for _, w := range p.windows {
		sum += w.work
	}
	return sum
}

// lat returns every latency sample of the phase.
func (p *phase) lat() []float64 {
	var out []float64
	for _, w := range p.windows {
		out = append(out, w.lat...)
	}
	return out
}

// add appends part, measured on a host running at speed f (see hostSpeed),
// to p with every time rescaled to the reference host. All parts of a phase
// must agree on the digest; a part that does not is a failed op.
func (p *phase) add(part *phase, f float64) {
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, w := range part.windows {
		p.windows = append(p.windows, window{dur: time.Duration(float64(w.dur) * f), work: w.work, lat: scaled(w.lat)})
	}
	if p.classes == nil {
		p.classes = map[string][]float64{}
	}
	for name, xs := range part.classes {
		p.classes[name] = append(p.classes[name], scaled(xs)...)
	}
	p.coalesced += part.coalesced
	p.ops += part.ops
	p.failed += part.failed
	if p.digest == "" {
		p.digest = part.digest
	} else if part.digest != p.digest {
		fmt.Printf("  sim_digest differs between parts: %s vs %s\n", part.digest, p.digest)
		p.failed++
	}
}

// state is one workload after set-up.
type state interface {
	// run drives the timed phase for d. tr is nil in untraced phases.
	run(d time.Duration, tr *tracer) (*phase, error)
	// layers derives the workload's own per-layer metrics after a traced
	// phase, given the runtime counters' change across it; it may run extra
	// diagnosis outside the timed phase.
	layers(tr *tracer, ph *phase, rt runtimeSnap) (map[string]float64, error)
	// figures are the workload's own end-to-end figures under their
	// descriptive names (events_per_s, hit_latency_p50_ms, ...).
	figures(ph *phase) []figure
	close() error
}

// env is what every workload's set-up receives.
type env struct {
	seed    int64
	workers int    // fleet width and service concurrency: one per CPU
	dir     string // scratch space for stores and corpora, inside outDir
}

type workload struct {
	name  string
	setup func(e *env) (state, error)
}

var workloads = []workload{
	{"grid", setupGrid},
	{"service-hit", func(e *env) (state, error) { return setupService(e, false) }},
	{"service-mixed", func(e *env) (state, error) { return setupService(e, true) }},
	{"corpus", setupCorpus},
}

// result is the benchmark's contract output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: grid, service-hit, service-mixed or corpus")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for spans, profiles, stores and the run log")
	calib := flag.Duration("calibrate", 0, "run only the reference kernel for this long and print its rate")
	flag.Parse()
	if *calib > 0 {
		fmt.Printf("%.4f\n", calibrate(runtime.NumCPU(), *calib))
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, workers: runtime.NumCPU(), dir: dir}
	d := time.Duration(*seconds * float64(time.Second))
	host := readHost()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *traced)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel)

	var res result
	if *traced == 1 {
		res, err = runTraced(wl, e, d, *outDir)
	} else {
		res, err = runUntraced(wl, e, d)
	}
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	logRun(*outDir, wl.name, *seed, *seconds, *traced, host, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runUntraced sets the workload up setupReps times, then measures a timed
// phase cut into `parts` parts and reports the end-to-end metrics. The
// host's speed is measured before the first set-up and after every set-up
// and part, and every time is rescaled to the reference host.
func runUntraced(wl *workload, e *env, d time.Duration) (result, error) {
	speed, err := newSpeedTrack()
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var st state
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		if st, err = wl.setup(e); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		took := time.Since(start).Seconds()
		var f float64
		if f, err = speed.next(); err != nil {
			st.close()
			return result{}, err
		}
		setups = append(setups, took*f)
	}
	ph, raw := &phase{}, &phase{}
	var rss []float64
	for k := 0; k < parts && err == nil; k++ {
		var part *phase
		stop := sampleRSS(&rss)
		part, err = st.run(d/parts, nil)
		stop()
		if err == nil {
			var f float64
			if f, err = speed.next(); err == nil {
				ph.add(part, f)
				raw.add(part, 1)
			}
		}
	}
	peak := peakRSSMiB()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", wl.name, err)
	}

	m := map[string]float64{
		"throughput_per_s": ph.rate(),
		"latency_p50_ms":   percentile(ph.lat(), 50),
		"latency_p90_ms":   percentile(ph.lat(), 90),
		"rss_p90_mb":       percentile(rss, 90),
		"setup_s":          median(setups),
	}
	figs := append([]figure{{"setup_s", median(setups), "s"}}, st.figures(ph)...)
	figs = append(figs, figure{"rss_p90_mb", percentile(rss, 90), "MiB"}, figure{"peak_rss_mb", peak, "MiB"})
	for _, f := range figs {
		fmt.Printf("  %-22s %14.4f %s\n", f.name, f.value, f.unit)
	}
	fmt.Printf("  host speed: %s (set-ups, then parts)\n", fmtList(speed.factors))
	fmt.Printf("  unscaled: throughput_per_s %.4f, latency_p50_ms %.4f, latency_p90_ms %.4f\n",
		raw.rate(), percentile(raw.lat(), 50), percentile(raw.lat(), 90))
	fmt.Printf("  set-ups: %s s; windows: %d; latency samples: %d\n", fmtList(setups), len(ph.windows), len(ph.lat()))
	fmt.Printf("  ops=%d ops_failed=%d sim_digest=%s\n", ph.ops, ph.failed, ph.digest)
	return makeResult(ph.ops, ph.failed, e2eMetrics, m)
}

// runTraced measures the workload with spans and a CPU profile between two
// untraced half-length phases, and reports the per-layer metrics plus the
// tracing overhead against the mean of the two untraced rates, so a host
// that drifts steadily during the run does not pass for overhead.
func runTraced(wl *workload, e *env, d time.Duration, outDir string) (result, error) {
	st, err := wl.setup(e)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer st.close()
	before1, err := st.run(d/2, nil)
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	base := fmt.Sprintf("%s-seed%d", wl.name, e.seed)
	profPath := filepath.Join(outDir, base+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	ph, err := st.run(d, tr)
	pprof.StopCPUProfile()
	rt := readRuntime().sub(before)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	after1, err := st.run(d/2, nil)
	if err != nil {
		return result{}, err
	}
	ops, failed := 0, 0
	for _, p := range []*phase{before1, ph, after1} {
		ops += p.ops
		failed += p.failed
		if p.digest != ph.digest {
			fmt.Printf("  sim_digest differs between phases: %s vs traced %s\n", p.digest, ph.digest)
			failed++
		}
	}
	untraced := (before1.rate() + after1.rate()) / 2

	m, err := st.layers(tr, ph, rt)
	if err != nil {
		return result{}, err
	}
	pm, err := probe(e, tr)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	for k, v := range pm {
		m[k] = v
	}
	shares, sampled, err := foldProfile(profPath)
	if err != nil {
		return result{}, err
	}
	for l, s := range shares {
		m[shareMetric(l)] = s
	}
	m["gc.cpu_fraction"] = rt.gcFraction()
	m["bench.trace_overhead_pct"] = 100 * (untraced - ph.rate()) / untraced
	if err := tr.write(filepath.Join(outDir, base+".spans.jsonl")); err != nil {
		return result{}, err
	}

	fmt.Printf("  untraced %.4f/s before and %.4f/s after, traced %.4f/s, overhead %.2f%%; %d spans; %.2fs CPU sampled\n",
		before1.rate(), after1.rate(), ph.rate(), m["bench.trace_overhead_pct"], len(tr.spans), sampled)
	for _, md := range layerMetrics {
		fmt.Printf("  %-34s %16.4f %s\n", md.name, m[md.name], md.unit)
	}
	fmt.Printf("  ops=%d ops_failed=%d sim_digest=%s\n", ops, failed, ph.digest)
	return makeResult(ops, failed, layerMetrics, m)
}

// makeResult builds the contract line over defs; a metric missing from m
// reads 0, and a non-finite one is an error, never a silent number.
func makeResult(ops, failed int, defs []metricDef, m map[string]float64) (result, error) {
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metricValue{}}
	for _, md := range defs {
		v := m[md.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", md.name, v)
		}
		res.Metrics[md.name] = metricValue{Value: v, Unit: md.unit}
	}
	if ops < 1 {
		return result{}, errors.New("no operation completed in the timed phase")
	}
	return res, nil
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// logRun appends the run's record, with the host, to runs.jsonl in outDir,
// so every figure kept from a run names the machine that produced it.
func logRun(outDir, name string, seed int64, seconds float64, traced int, host hostInfo, res result) {
	rec := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Trace    int      `json:"trace"`
		Host     hostInfo `json:"host"`
		Result   result   `json:"result"`
	}{name, seed, seconds, traced, host, res}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
	}
}
