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
	for _, s := range r.Timeline {
		bw.Sample(s)
	}
	if r.Telemetry != nil {
		for _, d := range r.Telemetry.Decisions {
			bw.Decision(d)
		}
	}
	for _, inst := range r.Instances {
		bw.Instance(inst.InstanceSummary)
	}
	for _, sub := range r.Subspaces {
		bw.Subspace(sub)
	}
	for _, s := range r.Screens {
		bw.Screen(s)
	}
	if r.Transport != nil {
		bw.Transport(*r.Transport)
	}
	if r.Telemetry != nil {
		for _, m := range r.Telemetry.Metrics {
			bw.Metric(m)
		}
	}
	bw.End(r.End)
	return bw.Close()
}

// ReadBin streams a binary trace's records through the record builder. The
// rebuilt Run is byte-identical (as JSON) to FromResult of the run that
// wrote the stream. A stream bin.Reader rejects fails with its ErrCorrupt.
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
			return b.run, nil
		}
		if err != nil {
			return nil, err
		}
		b.record(rec)
	}
}
