package export

import (
	"bytes"
	"strings"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/sim"
	"taopt/internal/trace/bin"
)

func sampleResult(t *testing.T) *harness.RunResult {
	t.Helper()
	app, err := apps.Load("Filters For Selfie")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(harness.RunConfig{
		App:      app,
		Tool:     "monkey",
		Setting:  harness.TaOPTDuration,
		Duration: 6 * sim.Duration(60e9),
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoundTrip(t *testing.T) {
	res := sampleResult(t)
	run := FromResult(res)

	var buf bytes.Buffer
	if err := run.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if back.App != res.Config.App.Name || back.Tool != "monkey" || back.Setting != "taopt-duration" {
		t.Fatalf("identity fields lost: %+v", back)
	}
	if back.Coverage != res.Union.Count() || back.UniqueCrashes != res.UniqueCrashes {
		t.Fatal("headline metrics lost")
	}
	if len(back.Instances) != len(res.Instances) {
		t.Fatalf("instances = %d, want %d", len(back.Instances), len(res.Instances))
	}
	for i, inst := range back.Instances {
		if len(inst.Events) != res.Instances[i].Trace.Len() {
			t.Fatalf("instance %d: %d events, want %d", i, len(inst.Events), res.Instances[i].Trace.Len())
		}
	}
	if len(back.Screens) != res.Book.Len() {
		t.Fatal("screen registry lost")
	}
	if len(back.Timeline) != len(res.Timeline) {
		t.Fatal("timeline lost")
	}
}

func TestTraceLogsReconstruction(t *testing.T) {
	res := sampleResult(t)
	run := FromResult(res)
	var buf bytes.Buffer
	if err := run.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logs := back.TraceLogs()
	if len(logs) != len(res.Instances) {
		t.Fatal("log count mismatch")
	}
	orig := res.Instances[0].Trace.Events()
	got := logs[0].Events()
	if len(got) != len(orig) {
		t.Fatal("event count mismatch")
	}
	for i := range orig {
		if got[i].To != orig[i].To || got[i].From != orig[i].From ||
			got[i].At != orig[i].At || got[i].Action.Kind != orig[i].Action.Kind ||
			got[i].Enforced != orig[i].Enforced {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Read(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"version": 4, "app": "a", "instances": [], "timeline": [], "screens": []}`)); err == nil {
		t.Fatal("version-4 document accepted")
	}
	var v4 bytes.Buffer
	bw := bin.NewWriter(&v4, bin.Header{App: "a", ExportVersion: 4})
	bw.End(bin.End{})
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBin(&v4); err == nil {
		t.Fatal("binary trace with export version 4 accepted")
	}
}

func TestSubspacesSerialised(t *testing.T) {
	res := sampleResult(t)
	if len(res.Subspaces) == 0 {
		t.Skip("no subspaces identified at this scale")
	}
	run := FromResult(res)
	if len(run.Subspaces) != len(res.Subspaces) {
		t.Fatal("subspace count mismatch")
	}
	for i, sub := range run.Subspaces {
		if len(sub.Members) != len(res.Subspaces[i].Members) {
			t.Fatal("member count mismatch")
		}
		for j := 1; j < len(sub.Members); j++ {
			if sub.Members[j-1] > sub.Members[j] {
				t.Fatal("members not sorted (unstable serialisation)")
			}
		}
	}
}

func TestChaosRunExportsFaults(t *testing.T) {
	app, err := apps.Load("Filters For Selfie")
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.DefaultConfig(0.5)
	fc.MinLife = 1 * sim.Duration(60e9)
	fc.MaxLife = 4 * sim.Duration(60e9)
	res, err := harness.Run(harness.RunConfig{
		App:      app,
		Tool:     "monkey",
		Setting:  harness.TaOPTDuration,
		Duration: 8 * sim.Duration(60e9),
		Seed:     4,
		Faults:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FromResult(res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Transport == nil {
		t.Fatal("chaos run exported without a transport summary")
	}
	if got := back.Transport.Deaths + back.Transport.Hangs; got != res.Transport.Deaths+res.Transport.Hangs {
		t.Fatalf("fault counts lost in round trip: %+v vs %+v", *back.Transport, res.Transport)
	}
	if back.Transport.FailedInstances != res.FailedInstances {
		t.Fatalf("failed-instance count %d, want %d", back.Transport.FailedInstances, res.FailedInstances)
	}
	failed := 0
	for _, inst := range back.Instances {
		if inst.Failed {
			failed++
		}
	}
	if failed != res.FailedInstances {
		t.Fatalf("%d instances marked failed in export, want %d", failed, res.FailedInstances)
	}

	// A fault-free run must not grow a faults section.
	buf.Reset()
	if err := FromResult(sampleResult(t)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	clean, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Transport != nil {
		t.Fatal("fault-free run exported a transport summary")
	}
}
