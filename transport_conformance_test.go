package taopt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taopt/internal/corpus"
	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/obs"
	"taopt/internal/trace/bin"
)

// The transport conformance contract: the coordination protocol survives
// serialisation. Every cell below runs over the Inline transport with
// telemetry on and recorded as a replayable binary trace, then is replayed
// from that trace with no farm and no testing tools. The replayed export
// must be byte-identical to an unrecorded run's, and the replayed
// coordinator must make exactly the live coordinator's decisions.

type conformanceCell struct {
	name    string
	app     string
	tool    string
	setting Setting
	faults  *FaultConfig
	// busy requires the cell's allocation outages to reach the coordinator
	// as farm-busy replies it defers on.
	busy bool
}

// chaosFaults is a fault mix hitting every injection path, including the
// command-loss channel that defaults to zero.
func chaosFaults(cmdLoss float64) *FaultConfig {
	fc := DefaultFaultConfig(0.25)
	fc.MinLife = 1 * Minute
	fc.MaxLife = 5 * Minute
	fc.CmdLossRate = cmdLoss
	return &fc
}

// busyFaults is the chaos mix with half of all allocations refused as
// farm-busy, so the coordinator's retry path runs on recorded replies.
func busyFaults() *FaultConfig {
	fc := chaosFaults(0)
	fc.AllocFailRate = 0.5
	return fc
}

func conformanceCells(short bool) []conformanceCell {
	cells := []conformanceCell{
		{"taopt-duration/fault-free", "Filters For Selfie", "monkey", TaOPTDuration, nil, false},
		{"taopt-duration/chaos", "Filters For Selfie", "monkey", TaOPTDuration, chaosFaults(0), false},
		{"taopt-duration/cmdloss", "Filters For Selfie", "ape", TaOPTDuration, chaosFaults(0.35), false},
		{"taopt-resource/busy", "Filters For Selfie", "monkey", TaOPTResource, busyFaults(), true},
	}
	if !short {
		cells = append(cells,
			conformanceCell{"taopt-resource/chaos", "Marvel Comics", "wctester", TaOPTResource, chaosFaults(0.2), false},
			conformanceCell{"baseline/chaos", "Sketch", "monkey", Baseline, chaosFaults(0.2), false},
			conformanceCell{"activity-partition/cmdloss", "Sketch", "ape", ActivityPartition, chaosFaults(0.35), false},
			conformanceCell{"single-long/fault-free", "Sketch", "monkey", SingleLong, nil, false},
			conformanceCell{"pats/cmdloss", "Filters For Selfie", "ape", harness.PATSMasterSlave, chaosFaults(0.35), false},
		)
	}
	return cells
}

func (c conformanceCell) config() RunConfig {
	return RunConfig{
		App:      LoadApp(c.app),
		Tool:     c.tool,
		Setting:  c.setting,
		Duration: 8 * Minute,
		Seed:     23,
		Faults:   c.faults,
	}
}

// record runs the cell with telemetry on and a replayable trace recorded.
func (c conformanceCell) record(t *testing.T) (*RunResult, []byte) {
	t.Helper()
	cfg := c.config()
	cfg.Telemetry = true
	return recordReplayable(t, cfg)
}

func recordReplayable(t *testing.T, cfg RunConfig) (*RunResult, []byte) {
	t.Helper()
	var trace bytes.Buffer
	cfg.BinTrace = &trace
	cfg.Replayable = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	return res, trace.Bytes()
}

// replay re-derives a run from its replayable trace and returns the
// serialised export and decision log.
func replay(t *testing.T, trace []byte) (exported, decisions []byte) {
	t.Helper()
	run, dlog, err := export.Replay(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("replaying trace: %v", err)
	}
	var ex, dl bytes.Buffer
	if err := run.Write(&ex); err != nil {
		t.Fatalf("serialising replayed export: %v", err)
	}
	if err := dlog.WriteJSONL(&dl); err != nil {
		t.Fatalf("serialising replayed decision log: %v", err)
	}
	return ex.Bytes(), dl.Bytes()
}

func decisionBytes(t *testing.T, res *RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Telemetry.DecisionLog().WriteJSONL(&buf); err != nil {
		t.Fatalf("serialising live decision log: %v", err)
	}
	return buf.Bytes()
}

func exportBytes(t *testing.T, res *RunResult) []byte {
	t.Helper()
	run := export.FromResult(res)
	var buf bytes.Buffer
	if err := run.Write(&buf); err != nil {
		t.Fatalf("serialising export: %v", err)
	}
	return buf.Bytes()
}

// saveTrace keeps each cell's replayable trace on disk under
// TAOPT_REPLAY_DIR, so CI can upload them as an artifact.
func saveTrace(t *testing.T, name string, trace []byte) {
	dir := os.Getenv("TAOPT_REPLAY_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("keeping trace: %v", err)
		return
	}
	path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+corpus.Ext)
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Logf("keeping trace: %v", err)
		return
	}
	t.Logf("trace kept at %s", path)
}

// TestTransportConformance asserts each cell's trace replay exports
// byte-identically to an unrecorded run and re-derives the live decision
// log.
func TestTransportConformance(t *testing.T) {
	for _, cell := range conformanceCells(testing.Short()) {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			plain, err := Run(cell.config())
			if err != nil {
				t.Fatalf("unrecorded run: %v", err)
			}
			want := exportBytes(t, plain)

			res, trace := cell.record(t)
			saveTrace(t, cell.name, trace)
			if cell.busy && res.Telemetry.DecisionLog().CountByReason(obs.KindAllocDefer)["farm-busy"] == 0 {
				t.Fatal("no farm-busy reply reached the coordinator")
			}
			got, decisions := replay(t, trace)
			if !bytes.Equal(want, got) {
				t.Fatalf("replay diverged from the unrecorded export:\n%s", firstDiff(want, got))
			}
			if live := decisionBytes(t, res); !bytes.Equal(live, decisions) {
				t.Fatalf("replayed decision log diverged:\n%s", firstDiff(live, decisions))
			}
		})
	}
}

// TestRecorderComposesOverInline asserts the Recorder's taps compose over
// the Inline transport without telemetry too: a replayable trace captured
// from a plain recorded run replays to that same run's export.
func TestRecorderComposesOverInline(t *testing.T) {
	cell := conformanceCells(true)[1] // taopt-duration/chaos
	res, trace := recordReplayable(t, cell.config())
	live := exportBytes(t, res)
	if got, _ := replay(t, trace); !bytes.Equal(live, got) {
		t.Fatalf("inline-recorded replay diverged:\n%s", firstDiff(live, got))
	}
}

// TestWireReplayHashStable pins the replayed export to the live export by
// hash as well — the form the acceptance check and CI artifacts use.
func TestWireReplayHashStable(t *testing.T) {
	cell := conformanceCells(true)[1] // taopt-duration/chaos
	res, err := Run(cell.config())
	if err != nil {
		t.Fatalf("unrecorded run: %v", err)
	}
	live := sha256.Sum256(exportBytes(t, res))
	_, trace := cell.record(t)
	replayed, _ := replay(t, trace)
	if got := sha256.Sum256(replayed); got != live {
		t.Fatalf("replayed export hash %s != live %s",
			hex.EncodeToString(got[:8]), hex.EncodeToString(live[:8]))
	}
}

// TestWireReplayReproducesDecisionLog asserts the replayed coordinator makes
// the exact decision sequence of the live one — the trace carries enough to
// re-derive not just the export but the reasoning behind it.
func TestWireReplayReproducesDecisionLog(t *testing.T) {
	cell := conformanceCells(true)[2] // cmdloss chaos, exercises retry decisions
	res, trace := cell.record(t)
	live := decisionBytes(t, res)
	if len(live) == 0 {
		t.Fatal("live run made no decisions; cell is not exercising the coordinator")
	}
	if _, replayed := replay(t, trace); !bytes.Equal(live, replayed) {
		t.Fatalf("replayed decision log diverged:\n%s", firstDiff(live, replayed))
	}
}

// TestWireReplayRejectsDivergedCoordinator: a trace whose farm-busy
// replies are re-encoded as plain errors makes the replayed coordinator give
// up the allocation retries the live one sent. Replay must report the
// recorded exchanges it no longer sends instead of consuming them as the
// runner's.
func TestWireReplayRejectsDivergedCoordinator(t *testing.T) {
	const classBusy, classOther = 1, 4              // the recorder's reply error classes
	_, trace := conformanceCells(true)[3].record(t) // taopt-resource/busy
	n := 0
	plain := rewrite(t, trace, func(w *bin.Writer, rec *bin.Record) bool {
		if rec.Kind == bin.KindReply && rec.Reply.ErrClass == classBusy {
			rec.Reply.ErrClass = classOther
			n++
		}
		return true
	})
	if n == 0 {
		t.Fatal("trace carries no farm-busy reply")
	}
	if _, _, err := export.Replay(bytes.NewReader(plain)); !errors.Is(err, export.ErrDiverged) {
		t.Fatalf("replay of a diverged coordinator: got %v, want ErrDiverged", err)
	}
}

// TestReplayRejectsLeaseSummaryMismatch: every lease must have exactly one
// end-of-run summary, and every lease ID may occur once. A stray summary
// and a duplicated lease each fail replay as divergence, a duplicated
// summary as a corrupt stream (bin.Reader rejects it), while the untouched
// re-encode still replays.
func TestReplayRejectsLeaseSummaryMismatch(t *testing.T) {
	_, trace := recordReplayable(t, conformanceCells(true)[1].config()) // taopt-duration/chaos
	if _, _, err := export.Replay(bytes.NewReader(rewrite(t, trace, nil))); err != nil {
		t.Fatalf("untouched re-encode does not replay: %v", err)
	}
	cases := map[string]func(w *bin.Writer, rec *bin.Record) bool{
		"stray summary": once(bin.KindInstance, func(w *bin.Writer, rec *bin.Record) {
			w.Instance(bin.InstanceSummary{ID: 999})
		}),
		"duplicate lease": func() func(*bin.Writer, *bin.Record) bool {
			first := -1
			return func(w *bin.Writer, rec *bin.Record) bool {
				if rec.Kind == bin.KindLease {
					if first < 0 {
						first = rec.Lease
					} else {
						rec.Lease = first
					}
				}
				return true
			}
		}(),
	}
	for name, edit := range cases {
		if _, _, err := export.Replay(bytes.NewReader(rewrite(t, trace, edit))); !errors.Is(err, export.ErrDiverged) {
			t.Errorf("%s: got %v, want ErrDiverged", name, err)
		}
	}
	dup := once(bin.KindInstance, func(w *bin.Writer, rec *bin.Record) { w.Instance(rec.Summary) })
	if _, _, err := export.Replay(bytes.NewReader(rewrite(t, trace, dup))); !errors.Is(err, bin.ErrCorrupt) {
		t.Errorf("duplicate summary: got %v, want bin.ErrCorrupt", err)
	}
}

// once returns an edit that calls inject before the first record of kind.
func once(kind bin.Kind, inject func(w *bin.Writer, rec *bin.Record)) func(*bin.Writer, *bin.Record) bool {
	done := false
	return func(w *bin.Writer, rec *bin.Record) bool {
		if rec.Kind == kind && !done {
			inject(w, rec)
			done = true
		}
		return true
	}
}

// rewrite re-encodes a replayable trace record by record with bin.Writer.
// edit (nil: none) sees each record first: it may change it, write records
// of its own ahead of it, or return false to drop it.
func rewrite(t *testing.T, trace []byte, edit func(w *bin.Writer, rec *bin.Record) bool) []byte {
	t.Helper()
	br, err := bin.NewReader(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var w *bin.Writer
	for {
		rec, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == bin.KindReplay {
			w = bin.NewReplayWriter(&out, br.Header(), *rec.Replay)
			continue
		}
		if edit != nil && !edit(w, rec) {
			continue
		}
		switch rec.Kind {
		case bin.KindEvent:
			w.Event(rec.Event)
		case bin.KindSample:
			w.Sample(rec.Sample)
		case bin.KindDecision:
			w.Decision(rec.Decision)
		case bin.KindInstance:
			w.Instance(rec.Summary)
		case bin.KindSubspace:
			w.Subspace(rec.Subspace)
		case bin.KindScreen:
			w.Screen(rec.Screen)
		case bin.KindTransport:
			w.Transport(rec.Transport)
		case bin.KindMetric:
			w.Metric(rec.Metric)
		case bin.KindEnd:
			w.End(rec.End)
		case bin.KindTree:
			w.Tree(rec.At, rec.Screen.Sig, rec.Tree)
		case bin.KindDelivered:
			w.Delivered(rec.At, rec.Event)
		case bin.KindCommand:
			w.Command(rec.At, *rec.Command)
		case bin.KindFate:
			w.Fate(rec.At, *rec.Command)
		case bin.KindReply:
			w.Reply(rec.At, *rec.Reply)
		case bin.KindLease:
			w.Lease(rec.At, rec.Lease)
		case bin.KindTick:
			w.Tick(rec.At)
		case bin.KindAccounting:
			w.Accounting(rec.At, rec.Transport)
		case bin.KindHeader, bin.KindStrDef, bin.KindSigDef, bin.KindReplay:
			t.Fatalf("%v record surfaced mid-stream", rec.Kind)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestReplayableTraceMatchesPlain: protocol records never leak into the
// analytics views. For one chaos run, the replayable trace and its plain
// twin decode to the same JSON export (equal to FromResult), re-encode to
// the same canonical binary form, and scan to the same corpus statistics
// (apart from the file size). Only the replayable one replays, and a
// replayable run needs a trace to record into.
func TestReplayableTraceMatchesPlain(t *testing.T) {
	cfg := conformanceCells(true)[1].config() // taopt-duration/chaos
	cfg.Telemetry = true
	cfg.Replayable = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("a replayable run without a BinTrace was accepted")
	}
	cfg.Replayable = false
	var plain bytes.Buffer
	cfg.BinTrace = &plain
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, replayable := recordReplayable(t, cfg)
	if _, _, err := export.Replay(bytes.NewReader(plain.Bytes())); !errors.Is(err, export.ErrNotReplayable) {
		t.Fatalf("replaying a plain trace: got %v, want ErrNotReplayable", err)
	}
	overridden := cfg
	cc := DefaultCoordinatorConfig(DurationConstrained)
	overridden.CoreConfig = &cc
	_, unrecorded := recordReplayable(t, overridden)
	if _, _, err := export.Replay(bytes.NewReader(unrecorded)); !errors.Is(err, export.ErrNotReplayable) {
		t.Fatalf("replaying a coordinator override: got %v, want ErrNotReplayable", err)
	}

	want := exportBytes(t, res)
	canonical := func(raw []byte) ([]byte, []byte) {
		t.Helper()
		run, err := export.ReadBin(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var js, b bytes.Buffer
		if err := run.Write(&js); err != nil {
			t.Fatal(err)
		}
		if err := run.WriteBin(&b); err != nil {
			t.Fatal(err)
		}
		return js.Bytes(), b.Bytes()
	}
	plainJSON, plainBin := canonical(plain.Bytes())
	replJSON, replBin := canonical(replayable)
	if !bytes.Equal(plainJSON, want) || !bytes.Equal(replJSON, want) {
		t.Fatalf("ReadBin views differ from FromResult:\nplain: %s\nreplayable: %s", firstDiff(want, plainJSON), firstDiff(want, replJSON))
	}
	if !bytes.Equal(plainBin, replBin) {
		t.Fatal("WriteBin(ReadBin(replayable)) differs from the canonical plain form")
	}

	scan := func(raw []byte) []*corpus.RunStat {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "run"+corpus.Ext), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		stats, err := corpus.ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			st.Bytes = 0
		}
		return stats
	}
	if a, b := scan(plain.Bytes()), scan(replayable); !reflect.DeepEqual(a, b) {
		t.Fatalf("corpus stats differ:\nplain:      %+v\nreplayable: %+v", a[0], b[0])
	}
}

// firstDiff renders the first differing line of two texts for debugging.
func firstDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
