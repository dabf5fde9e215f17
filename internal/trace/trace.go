// Package trace defines UI transition traces: "a sequence of UI screens
// interspersed with corresponding UI actions" (Section 5.2). Traces are what
// the Toller driver reports and what TaOPT's analyzer consumes; they are also
// the input to the offline subspace partition of the preliminary study.
package trace

import (
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// ActionKind classifies the UI action that produced a transition.
type ActionKind int

// Action kinds.
const (
	// ActionLaunch marks the app (re)starting: the first screen of a trace
	// or the screen after a crash restart.
	ActionLaunch ActionKind = iota
	// ActionTap is a widget interaction.
	ActionTap
	// ActionBack is the hardware Back key.
	ActionBack
)

func (k ActionKind) String() string {
	switch k {
	case ActionLaunch:
		return "launch"
	case ActionTap:
		return "tap"
	case ActionBack:
		return "back"
	default:
		return "unknown"
	}
}

// Action describes the UI action of a transition.
type Action struct {
	Kind ActionKind
	// Widget is the acted-on element's path within the source screen's
	// hierarchy; empty for launch/back.
	Widget ui.WidgetPath
}

// Event is one entry of a UI transition trace: the action taken and the
// abstract screen it led to.
type Event struct {
	Instance int
	At       sim.Duration
	Action   Action
	// From is the abstract screen the action was taken on (zero for launch).
	From ui.Signature
	// To is the abstract screen observed after the action.
	To ui.Signature
	// Activity is the destination screen's activity name.
	Activity string
	// Crashed marks transitions that ended in an app crash (To is the
	// relaunched screen).
	Crashed bool
	// Enforced marks transitions injected by TaOPT's entrypoint enforcement
	// (steering a tool out of a blocked subspace) rather than by the tool.
	Enforced bool
}

// Log is an append-only per-instance transition trace.
type Log struct {
	events []Event
}

// Append adds an event.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Events returns the recorded events in order. The returned slice is the
// log's backing store; callers must not mutate it.
func (l *Log) Events() []Event { return l.events }

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// Replay invokes fn for every recorded event in order. It is how offline
// consumers (the differential analysis suite, the benchmark harness) feed a
// captured trace back through an analyzer without copying the log.
func (l *Log) Replay(fn func(Event)) {
	for _, e := range l.events {
		fn(e)
	}
}

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

// Book is a registry of canonical concrete screens per abstract signature.
// Retaining one exemplar hierarchy per signature lets the analyzer compute
// tree similarities (CountIn) without storing every rendered screen.
type Book struct {
	screens map[ui.Signature]*ui.Screen
	order   []ui.Signature
}

// NewBook returns an empty registry.
func NewBook() *Book {
	return &Book{screens: make(map[ui.Signature]*ui.Screen)}
}

// Observe records that a screen with signature sig was seen. On the
// signature's first sight it calls render for the exemplar and keeps the
// returned screen, which the caller must not modify afterwards; otherwise
// render is not called.
//
//lint:hotpath
func (b *Book) Observe(sig ui.Signature, render func() *ui.Screen) {
	if _, ok := b.screens[sig]; !ok {
		b.screens[sig] = render()
		b.order = append(b.order, sig)
	}
}

// Lookup returns the canonical exemplar for sig, or nil.
func (b *Book) Lookup(sig ui.Signature) *ui.Screen { return b.screens[sig] }

// Signatures returns all known signatures in first-seen order.
func (b *Book) Signatures() []ui.Signature {
	return append([]ui.Signature(nil), b.order...)
}

// Len returns the number of distinct screens observed.
func (b *Book) Len() int { return len(b.order) }
