package harness

import (
	"sort"

	"taopt/internal/bus"
	"taopt/internal/core"
	"taopt/internal/metrics"
	"taopt/internal/obs"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
)

// The run record: a finished run as the binary-trace record sequence
// (internal/trace/bin). Every serialised form of a run — the .taoptb
// stream, and the JSON export, Chrome trace and decision views that
// export builds from records — comes out of this one emitter.

// recordHeader names the run in its record's opening header.
func (c RunConfig) recordHeader() bin.Header {
	return bin.Header{
		App:           c.App.Name,
		Tool:          c.Tool,
		Setting:       c.Setting.String(),
		Seed:          c.Seed,
		ScenarioHash:  c.ScenarioHash,
		ExportVersion: bin.ExportVersion,
		Telemetry:     c.Telemetry,
		Faults:        c.Faults != nil && c.Faults.Enabled(),
	}
}

// Header is the record header of the run.
func (r *RunResult) Header() bin.Header { return r.Config.recordHeader() }

// Records emits the run's records into s in canonical order: events grouped
// per instance (allocation order), timeline samples, decisions, then the
// end-of-run tail. A live BinTrace stream carries the same records with the
// first three kinds interleaved as they happened.
func (r *RunResult) Records(s bin.Sink) {
	for _, inst := range r.Instances {
		for _, ev := range inst.Trace.Events() {
			s.Event(ev)
		}
	}
	for _, p := range r.Timeline {
		s.Sample(sampleRecord(p))
	}
	if r.Telemetry != nil {
		for _, d := range r.Telemetry.DecisionLog().Decisions() {
			s.Decision(d)
		}
	}
	r.tail().Records(s)
}

func sampleRecord(p metrics.Point) bin.Sample {
	return bin.Sample{
		WallNS: int64(p.Wall), MachineNS: int64(p.Machine),
		Covered: p.Covered, Crashes: p.Crashes, AJS: p.AJS,
	}
}

// tail collects the run's bounded end-of-run sections.
func (r *RunResult) tail() *Tail {
	t := &Tail{
		Subspaces: r.Subspaces,
		Book:      r.Book,
		End: bin.End{
			WallNS:        int64(r.WallUsed),
			MachineNS:     int64(r.MachineUsed),
			Coverage:      r.Union.Count(),
			UniqueCrashes: r.UniqueCrashes,
		},
	}
	for _, ir := range r.Instances {
		sum := bin.InstanceSummary{
			ID:          ir.ID,
			AllocatedNS: int64(ir.Allocated),
			ReleasedNS:  int64(ir.Released),
			Failed:      ir.Failed,
			Coverage:    ir.Methods.Count(),
		}
		for _, rep := range ir.Crashes.Reports() {
			sum.Crashes = append(sum.Crashes, bin.Crash{
				Signature: string(rep.Signature),
				AtNS:      int64(rep.At),
				Frames:    rep.Frames,
			})
		}
		t.Instances = append(t.Instances, sum)
	}
	if r.Config.Faults != nil && r.Config.Faults.Enabled() {
		tr := r.transportRecord()
		t.Transport = &tr
	}
	if r.Telemetry != nil {
		t.Metrics = r.Telemetry.Registry().Snapshot()
	}
	return t
}

// transportRecord is the run's transport accounting as a record.
func (r *RunResult) transportRecord() bin.Transport {
	st := r.Transport
	return bin.Transport{
		Events:          st.Published,
		Delivered:       st.Delivered,
		Commands:        st.Commands,
		CommandFailures: st.CommandFailures,
		Dropped:         st.Dropped,
		Delayed:         st.Delayed,
		Deaths:          st.Deaths,
		Hangs:           st.Hangs,
		AllocFailures:   st.AllocFailures,
		LostCommands:    st.LostCommands,
		FailedInstances: r.FailedInstances,
		OrphansPending:  r.OrphansPending,
		CommandMix: &bin.CommandMix{
			Allocate:    st.KindCount(bus.Allocate),
			Deallocate:  st.KindCount(bus.Deallocate),
			BlockWidget: st.KindCount(bus.BlockWidget),
			BlockMember: st.KindCount(bus.BlockMember),
			Kill:        st.KindCount(bus.Kill),
			Hang:        st.KindCount(bus.Hang),
		},
	}
}

// Tail is the bounded end-of-run half of a run record: what closes a live
// binary trace, and what a replay re-derives.
type Tail struct {
	// Instances are the lease summaries in allocation order.
	Instances []bin.InstanceSummary
	// Subspaces are the coordinator's accepted subspaces (nil for
	// baselines).
	Subspaces []*core.Subspace
	// Book lists the distinct screens in first-seen order (nil: none).
	Book *trace.Book
	// Transport is a chaos run's transport accounting (nil: fault-free).
	Transport *bin.Transport
	// Metrics is the telemetry registry snapshot (nil without telemetry).
	Metrics []obs.Metric
	End     bin.End
}

// Records emits the tail into s: instance summaries, subspaces (members
// sorted ascending), screens, transport, metrics, end.
func (t *Tail) Records(s bin.Sink) {
	for _, sum := range t.Instances {
		s.Instance(sum)
	}
	for _, sub := range t.Subspaces {
		bs := bin.Subspace{
			ID: sub.ID, Entry: uint64(sub.Entry),
			Owner: sub.Owner, FoundNS: int64(sub.FoundAt),
		}
		for m := range sub.Members {
			bs.Members = append(bs.Members, uint64(m))
		}
		sort.Slice(bs.Members, func(i, j int) bool { return bs.Members[i] < bs.Members[j] })
		s.Subspace(bs)
	}
	if t.Book != nil {
		for _, sig := range t.Book.Signatures() {
			sc := t.Book.Lookup(sig)
			s.Screen(bin.Screen{Sig: uint64(sig), Activity: sc.Activity, Nodes: sc.Root.Size()})
		}
	}
	if t.Transport != nil {
		s.Transport(*t.Transport)
	}
	for _, m := range t.Metrics {
		s.Metric(m)
	}
	s.End(t.End)
}
