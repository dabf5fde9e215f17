package export

import (
	"fmt"
	"io"

	"taopt/internal/trace/bin"
)

// WriteBin serialises the run in the compact binary trace format
// (internal/trace/bin) — the storage twin of the JSON view. The record order
// is canonical: header, events grouped per instance, timeline samples,
// decisions, instance summaries, subspaces, screens, transport, metrics,
// end. ReadBin(WriteBin(r)) == r, and re-encoding that is a byte fixed
// point. (A live harness stream interleaves events across instances instead
// of grouping them; ReadBin regroups, so both forms decode to the same Run.)
func (r *Run) WriteBin(w io.Writer) error {
	bw := bin.NewWriter(w, bin.Header{
		App:           r.App,
		Tool:          r.Tool,
		Setting:       r.Setting,
		Seed:          r.Seed,
		ScenarioHash:  r.ScenarioHash,
		ExportVersion: r.Version,
		Telemetry:     r.Telemetry != nil,
		Faults:        r.Transport != nil,
	})
	for _, inst := range r.Instances {
		for _, ev := range inst.Events {
			bw.Event(toTraceEvent(inst.ID, ev))
		}
	}
	for _, p := range r.Timeline {
		bw.Sample(bin.Sample{
			WallNS: p.WallNS, MachineNS: p.MachineNS,
			Covered: p.Covered, Crashes: p.Crashes, AJS: p.AJS,
		})
	}
	if r.Telemetry != nil {
		for _, d := range r.Telemetry.Decisions {
			bw.Decision(d)
		}
	}
	for _, inst := range r.Instances {
		sum := bin.InstanceSummary{
			ID:          inst.ID,
			AllocatedNS: inst.AllocatedNS,
			ReleasedNS:  inst.ReleasedNS,
			Failed:      inst.Failed,
			Coverage:    inst.Coverage,
		}
		for _, cr := range inst.Crashes {
			sum.Crashes = append(sum.Crashes, bin.Crash{
				Signature: cr.Signature, AtNS: cr.AtNS, Frames: cr.Frames,
			})
		}
		bw.Instance(sum)
	}
	for _, sub := range r.Subspaces {
		bw.Subspace(bin.Subspace{
			ID: sub.ID, Entry: sub.Entry, Members: sub.Members,
			Owner: sub.Owner, FoundNS: sub.FoundNS,
		})
	}
	for _, s := range r.Screens {
		bw.Screen(bin.Screen{Sig: s.Signature, Activity: s.Activity, Nodes: s.Nodes})
	}
	if t := r.Transport; t != nil {
		bt := bin.Transport{
			Events: t.Events, Delivered: t.Delivered, Commands: t.Commands,
			CommandFailures: t.CommandFailures, Dropped: t.Dropped,
			Delayed: t.Delayed, Deaths: t.Deaths, Hangs: t.Hangs,
			AllocFailures: t.AllocFailures, LostCommands: t.LostCommands,
			FailedInstances: t.FailedInstances, OrphansPending: t.OrphansPending,
		}
		if m := t.CommandMix; m != nil {
			bt.HasMix = true
			bt.Mix = [6]int{m.Allocate, m.Deallocate, m.BlockWidget, m.BlockMember, m.Kill, m.Hang}
		}
		bw.Transport(bt)
	}
	if r.Telemetry != nil {
		for _, m := range r.Telemetry.Metrics {
			bw.Metric(m)
		}
	}
	bw.End(bin.End{
		WallNS:    r.WallUsedNS,
		MachineNS: r.MachineUsedNS,
		Coverage:  r.Coverage, UniqueCrashes: r.UniqueCrashes,
	})
	return bw.Close()
}

// ReadBin streams a binary trace's records through the record builder. The
// rebuilt Run is byte-identical (as JSON) to FromResult of the run that
// wrote the stream.
func ReadBin(rd io.Reader) (*Run, error) {
	br, err := bin.NewReader(rd)
	if err != nil {
		return nil, err
	}
	hdr := br.Header()
	if hdr.ExportVersion != FormatVersion {
		return nil, fmt.Errorf("export: unsupported format version %d in binary trace (want %d)", hdr.ExportVersion, FormatVersion)
	}
	b := newBuilder(hdr)
	for {
		rec, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := b.record(rec); err != nil {
			return nil, err
		}
	}
	return b.finish()
}
