package export

import (
	"errors"
	"fmt"
	"io"

	"taopt/internal/obs"
	"taopt/internal/sim"
)

// Views names the renderings of a run record, in the order tracetool
// render lists them.
var Views = []string{"json", "chrome", "decisions"}

// Render writes one view of the run to w: "json" is the export document,
// "chrome" the Perfetto-loadable trace (ChromeTrace), and "decisions" the
// decision log as JSONL (obs.WriteJSONL; the run must carry telemetry).
func (r *Run) Render(w io.Writer, view string) error {
	switch view {
	case "json":
		return r.Write(w)
	case "chrome":
		return ChromeTrace(r).Write(w)
	case "decisions":
		if r.Telemetry == nil {
			return errors.New("export: run carries no telemetry block (record it with -telemetry)")
		}
		return obs.WriteJSONL(w, r.Telemetry.Decisions)
	}
	return fmt.Errorf("export: unknown view %q (want one of %v)", view, Views)
}

// ChromeTrace assembles a Perfetto-loadable trace-event view of one run:
// testing instances become tracks carrying their lease spans, accepted
// subspaces become ownership spans on their (final) owner's track, and —
// when the run collected telemetry — every decision-log entry becomes an
// instant event on the deciding instance's track. The assembly order is
// fixed (instances in allocation order, subspaces in acceptance order,
// decisions in emission order), so the serialised trace is deterministic.
func ChromeTrace(r *Run) *obs.ChromeTrace {
	tr := &obs.ChromeTrace{}
	const pid = 1
	// Track 0 hosts coordinator-level decisions not tied to an instance
	// (allocation backoff, alloc-disable).
	tr.ThreadName(pid, 0, "coordinator")
	for _, inst := range r.Instances {
		tr.ThreadName(pid, inst.ID, fmt.Sprintf("instance %d", inst.ID))
		name := "lease"
		if inst.Failed {
			name = "lease (failed)"
		}
		tr.Complete(name, "lease", pid, inst.ID, sim.Duration(inst.AllocatedNS), sim.Duration(inst.ReleasedNS-inst.AllocatedNS))
	}
	for _, sub := range r.Subspaces {
		tr.Complete(fmt.Sprintf("subspace %d", sub.ID), "subspace", pid, sub.Owner,
			sim.Duration(sub.FoundNS), sim.Duration(r.WallNS-sub.FoundNS))
	}
	if r.Telemetry != nil {
		for _, d := range r.Telemetry.Decisions {
			tid := d.Instance
			if tid < 0 {
				tid = 0
			}
			args := map[string]any{}
			if d.Sub >= 0 {
				args["sub"] = d.Sub
			}
			if d.Reason != "" {
				args["reason"] = d.Reason
			}
			tr.Instant(d.Kind, "decision", pid, tid, sim.Duration(d.AtNS), args)
		}
	}
	return tr
}
