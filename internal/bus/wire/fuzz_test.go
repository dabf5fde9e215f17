package wire_test

import (
	"bytes"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/bus/wire"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/sim"
)

// FuzzWireLog fuzzes ReadLog over arbitrary bytes: a corrupt or hostile log
// must come back as an error, never a panic or a runaway recursion. The
// seeds are a recorded chaos run's log and truncated copies of it.
func FuzzWireLog(f *testing.F) {
	fc := faults.DefaultConfig(0.2)
	fc.MinLife = 1 * sim.Duration(60e9)
	fc.MaxLife = 2 * sim.Duration(60e9)
	var log bytes.Buffer
	if _, err := harness.Run(harness.RunConfig{
		App: apps.MustLoad("Filters For Selfie"), Tool: "monkey",
		Setting: harness.TaOPTDuration, Duration: 2 * sim.Duration(60e9),
		Instances: 2, Seed: 15, Faults: &fc, WireLog: &log,
	}); err != nil {
		f.Fatal(err)
	}
	raw := log.Bytes()
	f.Add(raw)
	for _, n := range []int{len(raw) / 2, 512, 64, 8} {
		if n < len(raw) {
			f.Add(raw[:n])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt input may be rejected with an error; it must not panic.
		_, _ = wire.ReadLog(bytes.NewReader(data))
	})
}
