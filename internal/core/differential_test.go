package core

import (
	"reflect"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/device"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/tools"
	"taopt/internal/trace"
)

// walkTrace drives one tool-controlled instance for steps transitions on a
// fresh device, without the scheduler: the cheapest way to manufacture a
// realistic per-app trace for offline analysis.
func walkTrace(t *testing.T, aut *app.App, toolName string, seed int64, steps int) (*trace.Log, *trace.Book) {
	t.Helper()
	book := trace.NewBook()
	rng := sim.NewRNG(seed)
	farm := device.NewFarm(aut, rng.Fork(1), 1)
	al, err := farm.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	driver := toller.NewDriver(al.Emu, book, 0)
	tool := tools.MustNew(toolName, rng.Fork(2).Int63())
	now := sim.Duration(0)
	for i := 0; i < steps; i++ {
		act := tool.Choose(driver.View())
		res := driver.Perform(act, now)
		now += res.Latency
	}
	return driver.Trace(), book
}

// analysis is everything an analyzer outputs over one trace: the candidates
// it returns and the analyzed decisions (score, components and gate verdict)
// it logs.
type analysis struct {
	Candidates []Candidate
	Decisions  []obs.Decision
}

// candidateSeq replays a captured trace through the production Analyzer, or
// through the rescan reference, and collects its outputs, resetting the
// instance after each candidate as the coordinator does on acceptance.
func candidateSeq(log *trace.Log, book *trace.Book, rescan bool) analysis {
	cfg := DefaultAnalyzerConfig(30 * second)
	cfg.AnalyzeEvery = 5
	cfg.WindowCap = 80
	// Low enough that both sides of the score gate occur on catalog traces.
	cfg.ScoreMax = 0.3
	cfg.Obs = &obs.Log{}
	var a interface {
		Observe(trace.Event) (Candidate, bool)
		ResetInstance(int)
	} = NewAnalyzer(cfg, book)
	if rescan {
		a = newRescanAnalyzer(cfg, book)
	}
	var out analysis
	log.Replay(func(ev trace.Event) {
		if c, ok := a.Observe(ev); ok {
			out.Candidates = append(out.Candidates, c)
			a.ResetInstance(ev.Instance)
		}
	})
	out.Decisions = cfg.Obs.Decisions()
	return out
}

// TestTrackerLegacyCandidateEquivalenceCatalog is the equivalence oracle the
// incremental analyzer is gated on: for every app in the catalog × every
// tool × 20 seeds, the production SpaceTracker path must produce the same
// outputs as the FindSpace rescan — the same candidates in the same order,
// and the same analyzed decisions with the same float bits in every score
// and the same pass/score-above-max verdicts.
func TestTrackerLegacyCandidateEquivalenceCatalog(t *testing.T) {
	const seeds = 20
	toolNames := []string{"monkey", "ape", "wctester"}
	totalCandidates := 0
	reasons := map[string]int{}
	for _, appName := range apps.Names() {
		aut, err := apps.Load(appName)
		if err != nil {
			t.Fatal(err)
		}
		for _, toolName := range toolNames {
			for seed := int64(0); seed < seeds; seed++ {
				log, book := walkTrace(t, aut, toolName, seed, 140)
				rescan := candidateSeq(log, book, true)
				tracked := candidateSeq(log, book, false)
				if !reflect.DeepEqual(rescan, tracked) {
					t.Fatalf("%s/%s seed %d: analyzer outputs diverged\nrescan  %+v\ntracked %+v",
						appName, toolName, seed, rescan, tracked)
				}
				totalCandidates += len(rescan.Candidates)
				for _, d := range rescan.Decisions {
					reasons[d.Reason]++
				}
			}
		}
	}
	// The oracle is only convincing if the traces actually produce
	// candidates and exercise both sides of the score gate; an always-empty
	// comparison would pass vacuously.
	if totalCandidates < 100 {
		t.Fatalf("only %d candidates across the whole catalog; oracle is too weak", totalCandidates)
	}
	if reasons["score-above-max"] < 20 {
		t.Fatalf("only %d score-above-max decisions across the whole catalog (%v); the gate is barely exercised",
			reasons["score-above-max"], reasons)
	}
}
