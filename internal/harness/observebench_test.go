package harness

import (
	"strings"
	"testing"
)

// TestNewObserveAnalyzerRejectsLegacy pins that the retired rescan switch
// fails loudly instead of silently measuring the production path.
func TestNewObserveAnalyzerRejectsLegacy(t *testing.T) {
	events, book, err := ObserveStream("Marvel Comics", 10)
	if err != nil {
		t.Fatal(err)
	}
	a := NewObserveAnalyzer(book, len(events), false)
	for _, ev := range events {
		a.Observe(ev)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "internal/core") {
			t.Fatalf("legacy=true: recovered %q, want a panic pointing at internal/core's tests", msg)
		}
	}()
	NewObserveAnalyzer(book, len(events), true)
}
