package taopt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taopt/internal/bus/wire"
	"taopt/internal/export"
	"taopt/internal/obs"
)

// The transport conformance contract: the coordination protocol survives
// serialisation. Every cell below runs over the Inline transport with
// telemetry on and its full message log recorded, then is replayed from that
// log with no farm and no testing tools. The replayed export must be
// byte-identical to an unrecorded run's, and the replayed coordinator must
// make exactly the live coordinator's decisions.

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

// record runs the cell with telemetry on and its wire log recorded.
func (c conformanceCell) record(t *testing.T) (*RunResult, []byte) {
	t.Helper()
	var log bytes.Buffer
	cfg := c.config()
	cfg.WireLog = &log
	cfg.Telemetry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	return res, log.Bytes()
}

// replay re-derives a run from its wire log and returns the serialised
// export and decision log.
func replay(t *testing.T, log []byte) (exported, decisions []byte) {
	t.Helper()
	run, dlog, err := export.ReplayWireLog(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("replaying wire log: %v", err)
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

// saveWireLog keeps a failing (or, under TAOPT_WIRELOG_DIR, every) cell's
// wire log on disk so CI can upload it as an artifact.
func saveWireLog(t *testing.T, name string, log []byte) {
	dir := os.Getenv("TAOPT_WIRELOG_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("keeping wire log: %v", err)
		return
	}
	path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".wirelog")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Logf("keeping wire log: %v", err)
		return
	}
	t.Logf("wire log kept at %s", path)
}

// TestTransportConformance asserts each cell's wire-log replay exports
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

			res, log := cell.record(t)
			saveWireLog(t, cell.name, log)
			if cell.busy && res.Telemetry.DecisionLog().CountByReason(obs.KindAllocDefer)["farm-busy"] == 0 {
				t.Fatal("no farm-busy reply reached the coordinator")
			}
			got, decisions := replay(t, log)
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
// the Inline transport without telemetry too: a wire log captured from a
// plain recorded run replays to that same run's export.
func TestRecorderComposesOverInline(t *testing.T) {
	cell := conformanceCells(true)[1] // taopt-duration/chaos
	var log bytes.Buffer
	cfg := cell.config()
	cfg.WireLog = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("inline run: %v", err)
	}
	live := exportBytes(t, res)
	if got, _ := replay(t, log.Bytes()); !bytes.Equal(live, got) {
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
	_, log := cell.record(t)
	replayed, _ := replay(t, log)
	if got := sha256.Sum256(replayed); got != live {
		t.Fatalf("replayed export hash %s != live %s",
			hex.EncodeToString(got[:8]), hex.EncodeToString(live[:8]))
	}
}

// TestWireReplayReproducesDecisionLog asserts the replayed coordinator makes
// the exact decision sequence of the live one — the log carries enough to
// re-derive not just the export but the reasoning behind it.
func TestWireReplayReproducesDecisionLog(t *testing.T) {
	cell := conformanceCells(true)[2] // cmdloss chaos, exercises retry decisions
	res, log := cell.record(t)
	live := decisionBytes(t, res)
	if len(live) == 0 {
		t.Fatal("live run made no decisions; cell is not exercising the coordinator")
	}
	if _, replayed := replay(t, log); !bytes.Equal(live, replayed) {
		t.Fatalf("replayed decision log diverged:\n%s", firstDiff(live, replayed))
	}
}

// TestWireReplayRejectsDivergedCoordinator: a log whose farm-busy replies
// are re-encoded as plain errors makes the replayed coordinator give up the
// allocation retries the live one sent. Replay must report the recorded
// exchanges it no longer sends instead of consuming them as the runner's.
func TestWireReplayRejectsDivergedCoordinator(t *testing.T) {
	_, log := conformanceCells(true)[3].record(t) // taopt-resource/busy
	if _, _, err := export.ReplayWireLog(bytes.NewReader(plainBusyReplies(t, log))); err == nil {
		t.Fatal("replay accepted a log whose coordinator diverged")
	}
}

// plainBusyReplies rewrites every farm-busy reply of a wire log in place as a
// plain error with the same message. It walks the codec's framing directly:
// an 8-byte magic+version, then per frame a little-endian uint32 length and
// a payload of kind byte, varint timestamp and, for replies, varint instance
// then the error-class byte.
func plainBusyReplies(t *testing.T, log []byte) []byte {
	t.Helper()
	const classBusy, classOther = 1, 4 // the codec's reply error classes
	out := append([]byte(nil), log...)
	n := 0
	for off := len("TAOPTWL") + 1; off+4 <= len(out); {
		size := int(binary.LittleEndian.Uint32(out[off:]))
		p := out[off+4 : off+4+size]
		off += 4 + size
		if wire.FrameKind(p[0]) != wire.FrameReply {
			continue
		}
		_, at := binary.Varint(p[1:])
		_, inst := binary.Varint(p[1+at:])
		if c := 1 + at + inst; p[c] == classBusy {
			p[c] = classOther
			n++
		}
	}
	if n == 0 {
		t.Fatal("log carries no farm-busy reply")
	}
	return out
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
