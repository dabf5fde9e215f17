package core

import (
	"fmt"
	"testing"

	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// observe registers s in book and returns its signature.
func observe(book *trace.Book, s *ui.Screen) ui.Signature {
	sig := s.Abstract()
	book.Observe(sig, func() *ui.Screen { return s })
	return sig
}

// structScreen builds a screen with `widgets` clickable children; structural
// similarity between two such screens grows with shared child counts.
func structScreen(activity string, widgets int) *ui.Screen {
	var children []*ui.Node
	for j := 0; j < widgets; j++ {
		children = append(children, &ui.Node{
			Class:      "android.widget.Button",
			ResourceID: fmt.Sprintf("w%d", j),
			Enabled:    true, Clickable: true,
		})
	}
	return &ui.Screen{
		Activity: activity,
		Root: &ui.Node{Class: "FrameLayout", ResourceID: "root",
			Enabled: true, Children: children},
	}
}

func TestAnalyzerMatchUsesTreeSimilarity(t *testing.T) {
	book := trace.NewBook()
	// Same activity, nearly identical structure: 12 vs 13 widgets.
	s12 := observe(book, structScreen("A", 12))
	s13 := observe(book, structScreen("A", 13))
	// Same activity, very different structure.
	s3 := observe(book, structScreen("A", 3))
	// Different activity.
	other := observe(book, structScreen("B", 12))

	a := NewAnalyzer(DefaultAnalyzerConfig(LMinShort), book)
	if !a.Match(s12, s12) {
		t.Fatal("identity must match")
	}
	if !a.Match(s12, s13) {
		t.Fatal("near-identical structures must match (list row added)")
	}
	if a.Match(s12, s3) {
		t.Fatal("very different structures must not match")
	}
	if a.Match(s12, other) {
		t.Fatal("different activities must not match")
	}
	// The cache returns consistent results.
	if !a.Match(s13, s12) {
		t.Fatal("cached symmetric lookup differs")
	}
}

func TestAnalyzerObserveCadence(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	cfg := DefaultAnalyzerConfig(LMinShort)
	cfg.AnalyzeEvery = 10
	a := NewAnalyzer(cfg, book)

	reports := 0
	for i := 0; i < 95; i++ {
		ev := trace.Event{
			Instance: 1,
			At:       sim.Duration(i) * sim.Duration(1e9),
			Action:   trace.Action{Kind: trace.ActionTap},
			To:       sig,
		}
		if _, found := a.Observe(ev); found {
			reports++
		}
	}
	// FindSpace ran every 10 events; whether it reports depends on the
	// trace, but the analyzer must never report more often than the cadence.
	if reports > 9 {
		t.Fatalf("reports = %d with AnalyzeEvery=10 over 95 events", reports)
	}
	if got := a.TraceLen(1); got != 95 {
		t.Fatalf("TraceLen = %d", got)
	}
}

func TestAnalyzerSkipsEnforcedEvents(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	a := NewAnalyzer(DefaultAnalyzerConfig(LMinShort), book)
	for i := 0; i < 50; i++ {
		a.Observe(trace.Event{Instance: 1, At: sim.Duration(i), To: sig, Enforced: true})
	}
	if got := a.TraceLen(1); got != 0 {
		t.Fatalf("enforced events entered the analysis window: %d", got)
	}
}

func TestAnalyzerWindowCap(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	cfg := DefaultAnalyzerConfig(LMinShort)
	cfg.WindowCap = 50
	a := NewAnalyzer(cfg, book)
	for i := 0; i < 500; i++ {
		a.Observe(trace.Event{Instance: 1, At: sim.Duration(i) * sim.Duration(1e9), To: sig})
	}
	if got := a.TraceLen(1); got > 50 {
		t.Fatalf("window grew to %d, cap 50", got)
	}
}

func TestAnalyzerResetInstance(t *testing.T) {
	book := trace.NewBook()
	sig := observe(book, structScreen("A", 4))
	a := NewAnalyzer(DefaultAnalyzerConfig(LMinShort), book)
	a.Observe(trace.Event{Instance: 1, At: 0, To: sig})
	a.ResetInstance(1)
	if a.TraceLen(1) != 0 {
		t.Fatal("ResetInstance did not clear the window")
	}
}

func TestAnalyzerFindsSubspaceEndToEnd(t *testing.T) {
	book := trace.NewBook()
	// Region A: 5 screens with 4..8 widgets; region B: 5 with 14..18 — the
	// two regions are structurally distinct, so CountIn separates them.
	var regionA, regionB []ui.Signature
	for i := 0; i < 5; i++ {
		regionA = append(regionA, observe(book, structScreen(fmt.Sprintf("A%d", i), 4+i)))
		regionB = append(regionB, observe(book, structScreen(fmt.Sprintf("B%d", i), 14+i)))
	}
	cfg := DefaultAnalyzerConfig(LMinShort)
	cfg.AnalyzeEvery = 10
	a := NewAnalyzer(cfg, book)

	at := sim.Duration(0)
	emit := func(sig ui.Signature) (Candidate, bool) {
		at += sim.Duration(1e9)
		return a.Observe(trace.Event{Instance: 1, At: at, Action: trace.Action{Kind: trace.ActionTap}, To: sig})
	}

	// 120 steps in region A, then 240 in region B.
	var got Candidate
	found := false
	for i := 0; i < 120; i++ {
		emit(regionA[i%5])
	}
	for i := 0; i < 240; i++ {
		if cand, ok := emit(regionB[i%5]); ok {
			got, found = cand, true
		}
	}
	if !found {
		t.Fatal("analyzer never reported the region switch")
	}
	members := make(map[ui.Signature]bool)
	for _, m := range got.Members {
		members[m] = true
	}
	for _, sig := range regionB {
		if !members[sig] {
			t.Fatalf("candidate missing region-B screen %v", sig)
		}
	}
	for _, sig := range regionA {
		if members[sig] {
			t.Fatalf("candidate absorbed region-A screen %v", sig)
		}
	}
}
