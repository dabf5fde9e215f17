package trace

import (
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// Screens returns the sequence of visited abstract screens with timestamps —
// the (S, T) input of Algorithm 1.
func (l *Log) Screens() ([]ui.Signature, []sim.Duration) {
	sigs := make([]ui.Signature, len(l.events))
	times := make([]sim.Duration, len(l.events))
	for i, e := range l.events {
		sigs[i] = e.To
		times[i] = e.At
	}
	return sigs, times
}
