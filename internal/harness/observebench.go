package harness

import (
	"fmt"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/core"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// ObserveStream builds the long-trace Observe benchmark's input: n
// single-instance tool events over a real app's rendered screens, cycling
// through screen regions with a phase switch every few hundred events so the
// analysis actually finds boundaries. The stream is deterministic — the
// benchmark harness and the regression tests share it.
func ObserveStream(appName string, n int) ([]trace.Event, *trace.Book, error) {
	aut, err := apps.Load(appName)
	if err != nil {
		return nil, nil, err
	}
	book := trace.NewBook()
	for i := range aut.Screens {
		screen := aut.Render(app.ScreenID(i), 0)
		book.Observe(screen.Abstract(), func() *ui.Screen { return screen })
	}
	sigs := book.Signatures()
	if len(sigs) == 0 {
		return nil, nil, fmt.Errorf("harness: app %q rendered no screens", appName)
	}
	const regionSize, phaseLen = 6, 600
	regions := (len(sigs) + regionSize - 1) / regionSize
	events := make([]trace.Event, n)
	for i := range events {
		region := (i / phaseLen) % regions
		idx := (region*regionSize + i%regionSize) % len(sigs)
		events[i] = trace.Event{
			Instance: 0,
			At:       sim.Duration(i+1) * sim.Duration(1e9),
			Action:   trace.Action{Kind: trace.ActionTap},
			To:       sigs[idx],
		}
	}
	return events, book, nil
}

// NewObserveAnalyzer returns an analyzer configured for the long-trace
// Observe benchmark: a window spanning the whole trace (so analysis cost at
// the end of the stream is the full-trace cost), the default analysis
// cadence, and no score gate (candidate materialisation is part of the
// measured path). legacy selects the FindSpace-rescan reference path.
func NewObserveAnalyzer(book *trace.Book, visits int, legacy bool) *core.Analyzer {
	cfg := core.DefaultAnalyzerConfig(60 * sim.Duration(1e9))
	cfg.WindowCap = visits + 1
	cfg.ScoreMax = 2
	cfg.Legacy = legacy
	return core.NewAnalyzer(cfg, book)
}
