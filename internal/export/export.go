// Package export serialises run results — UI transition traces, coverage,
// crashes, identified subspaces — to a stable JSON format, mirroring the
// paper's practice of logging every experiment for offline inspection
// (Section 8: "we output relevant logs and the used metrics for each
// experiment"). cmd/tracetool consumes these files for offline analysis.
package export

import (
	"encoding/json"
	"fmt"
	"io"

	"taopt/internal/harness"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// FormatVersion identifies the serialisation schema. Version 2 replaced the
// fault summary with the transport block (trace delivery accounting plus
// injected faults); version 3 added the optional telemetry block (decision
// log + metrics) and the transport's per-kind command mix; version 4 added
// the optional scenario_hash field — the canonical content hash of the
// scenario document (internal/scenario) that defined the run's app; version
// 5 marks the binary-trace era (internal/trace/bin): the JSON schema is
// unchanged from v4, but v5 files are the debug view of runs that can also
// stream the binary form, and WriteBin/ReadBin round-trip them losslessly.
// The binary record types are the document's sections, so the two forms
// share one version. Read and ReadBin accept exactly this version.
const FormatVersion = bin.ExportVersion

// Run is the serialised form of one campaign run. Its sections are the
// binary trace's record types (internal/trace/bin), held as decoded.
type Run struct {
	Version int    `json:"version"`
	App     string `json:"app"`
	Tool    string `json:"tool"`
	Setting string `json:"setting"`
	Seed    int64  `json:"seed"`
	// ScenarioHash names the exact scenario document that defined the run's
	// app (format v4); empty for apps built in code.
	ScenarioHash string `json:"scenario_hash,omitempty"`

	// End carries the run totals: wall and machine time used, coverage and
	// unique crashes.
	bin.End

	// Transport summarises the coordination transport's delivery accounting
	// and injected device-farm failures (emitted on chaos runs only).
	Transport *bin.Transport `json:"transport,omitempty"`
	// Telemetry carries the observability layer's decision log and metrics
	// snapshot (emitted only when the run collected telemetry).
	Telemetry *Telemetry `json:"telemetry,omitempty"`

	Instances []Instance     `json:"instances"`
	Subspaces []bin.Subspace `json:"subspaces,omitempty"`
	Timeline  []bin.Sample   `json:"timeline"`
	Screens   []bin.Screen   `json:"screens"`
}

// Instance is one testing-instance allocation: its end-of-run summary and
// the UI transitions it recorded.
type Instance struct {
	bin.InstanceSummary
	Events []Event `json:"events"`
}

// Event is one UI transition.
type Event struct {
	AtNS     int64  `json:"at_ns"`
	Kind     string `json:"kind"`
	Widget   string `json:"widget,omitempty"`
	From     uint64 `json:"from,omitempty"`
	To       uint64 `json:"to"`
	Activity string `json:"activity"`
	Crashed  bool   `json:"crashed,omitempty"`
	Enforced bool   `json:"enforced,omitempty"`
}

// Telemetry is the serialised observability block: the coordinator's
// decision log in emission order and the metrics registry's snapshot.
type Telemetry struct {
	Decisions []obs.Decision `json:"decisions"`
	Metrics   []obs.Metric   `json:"metrics,omitempty"`
}

// FromResult converts a harness result to its serialised form: the run's
// records (harness.RunResult.Records) fed through the record builder.
func FromResult(res *harness.RunResult) *Run {
	b := newBuilder(res.Header())
	res.Records(b)
	return b.run
}

// Write serialises the run as indented JSON.
func (r *Run) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// Read deserialises a run and validates the schema version.
func Read(rd io.Reader) (*Run, error) {
	var run Run
	if err := json.NewDecoder(rd).Decode(&run); err != nil {
		return nil, fmt.Errorf("export: decoding run: %w", err)
	}
	if run.Version != FormatVersion {
		return nil, fmt.Errorf("export: unsupported format version %d (want %d)", run.Version, FormatVersion)
	}
	return &run, nil
}

// TraceLogs reconstructs per-instance transition logs for offline analysis.
func (r *Run) TraceLogs() []*trace.Log {
	out := make([]*trace.Log, 0, len(r.Instances))
	for _, inst := range r.Instances {
		var l trace.Log
		for _, ev := range inst.Events {
			l.Append(toTraceEvent(inst.ID, ev))
		}
		out = append(out, &l)
	}
	return out
}

// toTraceEvent converts the JSON event shape back to the trace type.
func toTraceEvent(inst int, ev Event) trace.Event {
	return trace.Event{
		Instance: inst,
		At:       sim.Duration(ev.AtNS),
		Action:   trace.Action{Kind: parseKind(ev.Kind), Widget: ui.WidgetPath(ev.Widget)},
		From:     ui.Signature(ev.From),
		To:       ui.Signature(ev.To),
		Activity: ev.Activity,
		Crashed:  ev.Crashed,
		Enforced: ev.Enforced,
	}
}

func parseKind(s string) trace.ActionKind {
	switch s {
	case "launch":
		return trace.ActionLaunch
	case "back":
		return trace.ActionBack
	default:
		return trace.ActionTap
	}
}
