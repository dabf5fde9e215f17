package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"taopt/internal/apps"
	"taopt/internal/harness"
	"taopt/internal/harness/fleet"
)

// gridState is the grid workload: repeated passes over one campaign grid on
// a fleet pool one worker per CPU wide. Each job is a single-cell
// Campaign.Prefetch, which computes exactly what a whole-grid Prefetch does
// for that cell (a cell's seed derives from its key and the campaign seed
// alone) while letting the benchmark time each cell and tag it with its
// worker lane.
type gridState struct {
	spec    gridSpec
	keys    []harness.CellKey
	workers int
	// ref holds each cell's outcome from its first computation; every later
	// computation must reproduce it.
	ref map[harness.CellKey]string
}

func setupGrid(e *env) (state, error) {
	spec := genGrid(e.seed)
	// Catalog init: generate every app of the grid once.
	for _, a := range spec.Apps {
		if _, err := apps.Load(a); err != nil {
			return nil, err
		}
	}
	g := &gridState{spec: spec, keys: spec.cells(), workers: e.workers, ref: make(map[harness.CellKey]string)}
	// Warm-up: one cell per app, which also seeds the reference outcomes.
	var warm []harness.CellKey
	for i := 0; i < len(g.keys); i += len(spec.Tools) * len(spec.Settings) {
		warm = append(warm, g.keys[i])
	}
	results := fleet.Map(e.workers, len(warm), func(i int) (*harness.CellSummary, error) {
		return computeCell(spec, warm[i])
	})
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		g.ref[warm[i]] = cellOutcome(r.Value)
	}
	return g, nil
}

// computeCell runs one cell through a single-cell campaign's Prefetch.
func computeCell(spec gridSpec, key harness.CellKey) (*harness.CellSummary, error) {
	c := harness.NewCampaign(harness.CampaignConfig{
		Apps: []string{key.App}, Tools: []string{key.Tool},
		Duration: spec.Duration, Seed: spec.Seed,
	})
	if err := c.Prefetch(nil, key.Setting); err != nil {
		return nil, err
	}
	return c.Cell(key.App, key.Tool, key.Setting)
}

// cellOutcome is everything simulated about a cell that the digest covers.
func cellOutcome(s *harness.CellSummary) string {
	return fmt.Sprintf("%s union=%d crashes=%d events=%d subspaces=%d offline=%d uis=%d wall=%d machine=%d hash=%s",
		s.Key, s.Union, s.UniqueCrashes, s.Events, s.Subspaces, s.OfflineSubspaces,
		s.DistinctUIs, s.WallUsed, s.MachineUsed, s.Hash)
}

// passResult is one pass over the grid.
type passResult struct {
	wall   time.Duration
	events uint64
	cellMS []float64
	failed int
}

// pass computes every cell of the grid once on a pool of the given width.
// Lanes are handed out as tokens, so at most `workers` cells run at once and
// each cell span names the lane it ran on.
func (g *gridState) pass(workers int, tr *tracer, req int64) (passResult, error) {
	lanes := make(chan int, workers)
	for i := 0; i < workers; i++ {
		lanes <- i
	}
	passID := tr.newID()
	type cellRun struct {
		sum *harness.CellSummary
		ms  float64
	}
	start := time.Now()
	results := fleet.Map(workers, len(g.keys), func(i int) (cellRun, error) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		t0 := time.Now()
		s, err := computeCell(g.spec, g.keys[i])
		t1 := time.Now()
		if err != nil {
			return cellRun{}, err
		}
		tr.add(span{Name: "harness.cell", Parent: passID, Req: req, Slot: lane, N: int64(s.Events)}, t0, t1)
		return cellRun{s, float64(t1.Sub(t0).Nanoseconds()) / 1e6}, nil
	})
	end := time.Now()
	tr.add(span{ID: passID, Name: "fleet.pass", Req: req, N: int64(workers)}, start, end)

	out := passResult{wall: end.Sub(start)}
	for i, r := range results {
		if r.Err != nil {
			return passResult{}, fmt.Errorf("cell %s: %w", g.keys[i], r.Err)
		}
		out.events += r.Value.sum.Events
		out.cellMS = append(out.cellMS, r.Value.ms)
		o := cellOutcome(r.Value.sum)
		if ref, ok := g.ref[g.keys[i]]; !ok {
			g.ref[g.keys[i]] = o
		} else if ref != o {
			fmt.Printf("  cell %s diverged:\n    was %s\n    now %s\n", g.keys[i], ref, o)
			out.failed++
		}
	}
	return out, nil
}

// digest hashes every cell's reference outcome in grid order.
func (g *gridState) digest() string {
	h := sha256.New()
	for _, k := range g.keys {
		fmt.Fprintln(h, g.ref[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (g *gridState) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for req := int64(1); req == 1 || time.Since(start) < d; req++ {
		p, err := g.pass(g.workers, tr, req)
		if err != nil {
			return nil, err
		}
		ph.ops += len(g.keys)
		ph.failed += p.failed
		ph.windows = append(ph.windows, window{dur: p.wall, work: float64(p.events), lat: p.cellMS})
	}
	ph.digest = g.digest()
	return ph, nil
}

func (g *gridState) figures(ph *phase) []figure {
	var passS []float64
	for _, w := range ph.windows {
		passS = append(passS, w.dur.Seconds())
	}
	return []figure{
		{"events_per_s", ph.rate(), "sim-events/s"},
		{"grid_pass_s", median(passS), "s"},
		{"grid_passes", float64(len(passS)), "count"},
		{"cell_ms_p50", percentile(ph.lat(), 50), "ms"},
		{"cell_ms_p90", percentile(ph.lat(), 90), "ms"},
	}
}

// laneTotals sums the grid passes a tracer recorded: pass wall seconds and
// lane-busy seconds (the cell spans under each pass).
func laneTotals(tr *tracer) (wall, busy float64, passes int) {
	for _, c := range tr.named("harness.cell") {
		busy += c.ms() / 1e3
	}
	for _, p := range tr.named("fleet.pass") {
		wall += p.ms() / 1e3
		passes++
	}
	return wall, busy, passes
}

// fleetRounds is how many serial/parallel pass pairs the fleet diagnosis
// alternates.
const fleetRounds = 3

// layers reports the cell and lane figures of the traced phase, then
// diagnoses the fleet curve and re-measures the old 8-cell bench shape.
func (g *gridState) layers(tr *tracer, ph *phase, rt runtimeSnap) (map[string]float64, error) {
	w := float64(g.workers)
	wall, busy, n := laneTotals(tr)
	m := map[string]float64{
		"harness.cell_ms_p50":           median(tr.durationsMS("harness.cell")),
		"harness.cell_ms_max":           percentile(tr.durationsMS("harness.cell"), 100),
		"harness.alloc_bytes_per_event": rt.allocBytes / ph.work(),
		"fleet.parallel_efficiency":     busy / (wall * w),
		"fleet.tail_idle_s":             (wall*w - busy) / float64(n),
	}

	// Against ideal scaling (serial pass time / lanes) a parallel pass loses
	// lane idle time (mostly the tail, waiting on the last large cells), GC
	// CPU taken from the lanes, and the rest (cells running slower side by
	// side). With one lane per CPU every GC cycle of a parallel pass takes
	// CPU from a cell, while a serial pass runs its background GC on the
	// spare CPU and pays only its assists inside cells. Serial and parallel
	// passes alternate so both see the same host; each term is the median
	// over the rounds.
	var t1s, tws, gaps, tails, gcs, rests, serialRates []float64
	for r := 0; r < fleetRounds; r++ {
		s0 := readRuntime()
		serial, err := g.pass(1, nil, 0)
		if err != nil {
			return nil, err
		}
		s1 := readRuntime()
		lanes := newTracer()
		par, err := g.pass(g.workers, lanes, 1)
		if err != nil {
			return nil, err
		}
		s2 := readRuntime()
		if serial.failed+par.failed > 0 {
			return nil, fmt.Errorf("fleet diagnosis passes diverged from the timed phase")
		}
		t1, tw := serial.wall.Seconds(), par.wall.Seconds()
		_, laneBusy, _ := laneTotals(lanes)
		gap := tw - t1/w
		tail := (tw*w - laneBusy) / w
		gc := max(0, (s2.sub(s1).gcCPU-s1.sub(s0).assistCPU)/w)
		t1s, tws = append(t1s, t1), append(tws, tw)
		gaps, tails, gcs = append(gaps, gap), append(tails, tail), append(gcs, gc)
		rests = append(rests, gap-tail-gc)
		serialRates = append(serialRates, float64(serial.events)/t1)
		fmt.Printf("  fleet round %d: serial %.3fs, %d-lane %.3fs (ideal %.3fs): gap %.3fs = tail %.3fs + GC %.3fs + rest %.3fs\n",
			r+1, t1, g.workers, tw, t1/w, gap, tail, gc, gap-tail-gc)
	}
	m["fleet.serial_events_per_s"] = median(serialRates)
	m["fleet.speedup"] = median(t1s) / median(tws)
	m["fleet.gap_s"] = median(gaps)
	m["fleet.gap_tail_s"] = median(tails)
	m["fleet.gap_gc_s"] = median(gcs)
	m["fleet.gap_rest_s"] = median(rests)

	w1, w4, err := oldBenchShape()
	if err != nil {
		return nil, err
	}
	m["fleet.old8_w1_events_per_s"] = w1
	m["fleet.old8_w4_events_per_s"] = w4
	fmt.Printf("  fleet: old 8-cell bench grid %.0f events/s at workers=1, %.0f at workers=4\n", w1, w4)
	return m, nil
}

// oldBenchShape re-measures the grid cmd/bench used to report: two small
// apps × monkey, ape × baseline, taopt-duration at 12 minutes, campaign seed
// 1, as a whole-grid Prefetch at workers=1 and workers=4. The two widths
// alternate over three rounds; each figure is the median.
func oldBenchShape() (float64, float64, error) {
	measure := func(workers int) (float64, error) {
		c := harness.NewCampaign(harness.CampaignConfig{
			Apps:     []string{"Filters For Selfie", "Marvel Comics"},
			Tools:    []string{"monkey", "ape"},
			Duration: 12 * minute,
			Seed:     1,
			Workers:  workers,
		})
		settings := []harness.Setting{harness.BaselineParallel, harness.TaOPTDuration}
		start := time.Now()
		if err := c.Prefetch(nil, settings...); err != nil {
			return 0, err
		}
		wall := time.Since(start).Seconds()
		var events uint64
		for _, a := range c.Apps() {
			for _, t := range c.Tools() {
				for _, s := range settings {
					cell, err := c.Cell(a, t, s)
					if err != nil {
						return 0, err
					}
					events += cell.Events
				}
			}
		}
		return float64(events) / wall, nil
	}
	var w1, w4 []float64
	for i := 0; i < 3; i++ {
		a, err := measure(1)
		if err != nil {
			return 0, 0, err
		}
		b, err := measure(4)
		if err != nil {
			return 0, 0, err
		}
		w1, w4 = append(w1, a), append(w4, b)
	}
	return median(w1), median(w4), nil
}

func (g *gridState) close() error { return nil }
