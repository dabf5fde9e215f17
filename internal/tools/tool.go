// Package tools reimplements the exploration strategies of the paper's three
// automated UI testing tools (Section 6.1): Monkey (random input generation),
// Ape (model-based exploration with abstract-state refinement), and WCTester
// (the state-of-the-practice tool whose strategy prioritises UI actions that
// trigger Activity transitions).
//
// A Tool observes only a toller.View — never app internals — and returns one
// of the view's actions. Everything TaOPT-related is tool-agnostic: the
// coordinator never imports this package's concrete types.
package tools

import (
	"fmt"
	"sort"

	"taopt/internal/device"
	"taopt/internal/toller"
)

// Tool is one testing-tool process attached to one testing instance.
type Tool interface {
	// Name returns the tool's registry name.
	Name() string
	// Choose picks the next action from the view. The view always contains
	// at least the Back action.
	Choose(v toller.View) device.Action
}

// Factory creates a fresh tool process with its own random seed.
type Factory func(seed int64) Tool

var registry = map[string]Factory{
	"monkey":   func(seed int64) Tool { return NewMonkey(seed) },
	"ape":      func(seed int64) Tool { return NewApe(seed) },
	"wctester": func(seed int64) Tool { return NewWCTester(seed) },
}

// Names returns the registered tool names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New instantiates the named tool with the given seed.
func New(name string, seed int64) (Tool, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tools: unknown tool %q (have %v)", name, Names())
	}
	return f(seed), nil
}

// MustNew is New for static names; it panics on unknown tools.
func MustNew(name string, seed int64) Tool {
	t, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// taps returns the tap actions of a view: every action but the last, which
// toller.View's layout guarantees is Back. The result aliases v.Actions, so
// it is valid only as long as the view is.
//
//lint:hotpath
func taps(v toller.View) []device.Action { return v.Actions[:len(v.Actions)-1] }

// backAction returns the view's Back action, which toller.View's layout
// puts last.
func backAction(v toller.View) device.Action { return v.Actions[len(v.Actions)-1] }
