package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"taopt/internal/harness"
	"taopt/internal/sim"
)

// The generator turns a seed into every input the workloads feed the
// program. App sets are fixed so runs under different seeds do comparable
// work; the seed picks the campaign and run seeds, tools, settings and the
// request mix.

const minute = sim.Duration(60e9)

var (
	allTools    = []string{"monkey", "ape", "wctester"}
	allSettings = []string{"baseline", "taopt-duration", "taopt-resource"}
)

// gridSpec is one campaign grid: apps × tools × settings at one duration.
type gridSpec struct {
	Apps     []string
	Tools    []string
	Settings []harness.Setting
	Duration sim.Duration
	Seed     int64
}

// cells lists the grid's cells in the order Campaign.Prefetch visits them.
func (g gridSpec) cells() []harness.CellKey {
	var out []harness.CellKey
	for _, a := range g.Apps {
		for _, t := range g.Tools {
			for _, s := range g.Settings {
				out = append(out, harness.CellKey{App: a, Tool: t, Setting: s})
			}
		}
	}
	return out
}

func campaignSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31) + 1 }

// genGrid is the grid workload's campaign: small catalog apps beside large
// ones, every tool, the baseline and both TaOPT modes, so cells differ in
// size by about 4× and the fleet's tail shows.
func genGrid(seed int64) gridSpec {
	rng := rand.New(rand.NewSource(seed))
	return gridSpec{
		Apps:     []string{"Duolingo", "Filters For Selfie", "Marvel Comics", "Zedge"},
		Tools:    allTools,
		Settings: []harness.Setting{harness.BaselineParallel, harness.TaOPTDuration, harness.TaOPTResource},
		Duration: 4 * minute,
		Seed:     campaignSeed(rng),
	}
}

// genCorpusGrid is the campaign whose binary traces form the corpus.
func genCorpusGrid(seed int64) gridSpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return gridSpec{
		Apps:     []string{"Duolingo", "Filters For Selfie", "Marvel Comics", "Sketch"},
		Tools:    allTools,
		Settings: []harness.Setting{harness.BaselineParallel, harness.TaOPTDuration},
		Duration: 4 * minute,
		Seed:     campaignSeed(rng),
	}
}

// runDoc is one taoptd run scenario.
type runDoc struct {
	App         string
	Tool        string
	Setting     string
	DurationMin float64
	Seed        int64
}

// body renders the document under name; the name is not part of the cache
// key, so renamed copies of one document are cache hits of each other.
func (d runDoc) body(name string) []byte {
	return []byte(fmt.Sprintf(`{"schemaVersion": 1, "kind": "run", "name": %q, "run": {`+
		`"app": %q, "tool": %q, "setting": %q, "durationMin": %g, "seed": %d}}`,
		name, d.App, d.Tool, d.Setting, d.DurationMin, d.Seed))
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// warmApps span the catalog from its smallest app to its largest, so a hit's
// cost (the service regenerates the app on every submit) ranges ~30×.
var warmApps = []string{
	"Filters For Selfie", "Marvel Comics", "Sketch", "Merriam-Webster",
	"Google Translate", "Duolingo", "Quizlet", "Zedge",
}

// missApps are the small apps new configurations use, so a miss costs one
// short simulation.
var missApps = []string{"Filters For Selfie", "Marvel Comics", "Sketch", "Merriam-Webster"}

// genWarmDocs returns the documents the service workloads compute during
// set-up; every later submit of one of them is a cache hit. Tools and
// settings rotate over the apps, so every seed serves the same mix of export
// sizes; the seed picks the run seeds.
func genWarmDocs(seed int64) []runDoc {
	rng := rand.New(rand.NewSource(seed ^ 0x3a7d))
	out := make([]runDoc, len(warmApps))
	for i, a := range warmApps {
		out[i] = runDoc{App: a, Tool: allTools[i%len(allTools)],
			Setting: allSettings[i/len(allTools)%len(allSettings)], DurationMin: 4, Seed: campaignSeed(rng)}
	}
	return out
}

// op is one submit of the closed-loop service clients.
type op struct {
	K    int     // position in the request sequence
	Warm int     // index of the warm document re-submitted, or -1
	New  *runDoc // a configuration no earlier op used (Warm == -1)
	// meet pairs the two submits of a new configuration sent by both
	// clients at once: the first waits on it, the second closes it.
	meet chan struct{}
	// Pair marks the second of the two.
	Pair bool
}

// pairWait bounds how long the first submit of a pair waits for the other
// client, which may already have stopped.
const pairWait = time.Second

// rendezvous holds the first submit of a pair until its twin is drawn, so
// the two reach the service together and coalesce onto one compute. It
// waits at most pairWait, and not past end, after which the other client
// draws no more ops.
func (o op) rendezvous(end time.Time) {
	if o.meet == nil {
		return
	}
	if o.Pair {
		close(o.meet)
		return
	}
	wait := min(pairWait, time.Until(end))
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-o.meet:
	case <-t.C:
	}
}

// opSeq is the seeded request sequence both clients draw from. The content
// of the k-th op depends on the seed alone; which client sends it depends
// on timing. The mix is balanced, not drawn op by op, so every seed does the
// same work in another order: re-submits visit the warm documents in seeded
// permutations, and in service-mixed every newEvery-th draw is a new
// configuration, cycling through a seeded order of every small-app shape.
type opSeq struct {
	mu       sync.Mutex
	rng      *rand.Rand
	warm     int
	newEvery int      // every newEvery-th draw starts a new configuration; 0 for never
	perm     []int    // the rest of the current permutation of warm documents
	shapes   []runDoc // every new configuration's app, tool and setting
	k, news  int
	pending  *op
}

// pairEvery makes every pairEvery-th new configuration a pair.
const pairEvery = 3

func newOpSeq(seed int64, warm, newEvery int) *opSeq {
	q := &opSeq{rng: rand.New(rand.NewSource(seed ^ 0x09e5)), warm: warm, newEvery: newEvery}
	for _, a := range missApps {
		for _, t := range allTools {
			for _, st := range allSettings {
				q.shapes = append(q.shapes, runDoc{App: a, Tool: t, Setting: st, DurationMin: 2})
			}
		}
	}
	q.rng.Shuffle(len(q.shapes), func(i, j int) { q.shapes[i], q.shapes[j] = q.shapes[j], q.shapes[i] })
	return q
}

func (q *opSeq) next() op {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.k++
	if p := q.pending; p != nil {
		q.pending = nil
		p.K = q.k
		return *p
	}
	if q.newEvery == 0 || q.k%q.newEvery != 0 {
		if len(q.perm) == 0 {
			q.perm = q.rng.Perm(q.warm)
		}
		w := q.perm[0]
		q.perm = q.perm[1:]
		return op{K: q.k, Warm: w}
	}
	d := q.shapes[q.news%len(q.shapes)]
	d.Seed = int64(1_000_000 + q.k)
	q.news++
	first := op{K: q.k, Warm: -1, New: &d}
	if q.news%pairEvery == 0 {
		first.meet = make(chan struct{})
		q.pending = &op{Warm: -1, New: &d, meet: first.meet, Pair: true}
	}
	return first
}
