// Package flagged is exhaustive testdata; the harness checks it under the
// synthetic import path taopt/internal/core so its local enums count as
// module-defined. Each switch below is out of sync with its const block.
package flagged

import "taopt/internal/trace/bin"

// Kind is a local int enum in the shape of the module's kind families.
type Kind int

const (
	KindA Kind = iota
	KindB
	KindC
)

// Mode is a string enum; exhaustive covers those too.
type Mode string

const (
	ModeFast Mode = "fast"
	ModeSafe Mode = "safe"
)

func missingMember(k Kind) int {
	switch k { // want "switch over Kind misses KindC"
	case KindA:
		return 1
	case KindB:
		return 2
	}
	return 0
}

// A default clause is runtime handling for impossible values, not coverage:
// the switch below still drifts silently when KindC gains real semantics.
func defaultDoesNotCover(k Kind) int {
	switch k { // want "misses KindC .1 of 3 members.. name every member .a default does not count as coverage."
	case KindA, KindB:
		return 1
	default:
		return 0
	}
}

func missingTwo(k Kind) bool {
	switch k { // want "misses KindB, KindC .2 of 3 members."
	case KindA:
		return true
	}
	return false
}

func stringEnum(m Mode) bool {
	switch m { // want "switch over Mode misses ModeSafe"
	case ModeFast:
		return true
	}
	return false
}

// A dispatcher over the binary trace's record kinds that silently omits
// one kind — exactly the drift that desyncs a codec from its enum.
func recordDispatch(k bin.Kind) bool {
	switch k { // want "switch over bin.Kind misses KindAccounting .1 of 21 members."
	case bin.KindHeader, bin.KindStrDef, bin.KindSigDef, bin.KindEvent, bin.KindSample,
		bin.KindDecision, bin.KindInstance, bin.KindSubspace, bin.KindScreen,
		bin.KindTransport, bin.KindMetric, bin.KindEnd, bin.KindReplay, bin.KindTree,
		bin.KindDelivered, bin.KindCommand, bin.KindFate, bin.KindReply, bin.KindLease,
		bin.KindTick:
		return true
	}
	return false
}

func unjustifiedAllowStillCounts(k Kind) int {
	//lint:allow exhaustive // want "malformed or unjustified"
	switch k { // want "misses KindC"
	case KindA, KindB:
		return 1
	}
	return 0
}
