package wire_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/bus/wire"
	"taopt/internal/faults"
	"taopt/internal/harness"
	"taopt/internal/sim"
	"taopt/internal/trace/bin"
)

// FuzzWireLog fuzzes the decoding of a replayable trace's protocol records
// over arbitrary bytes: every record, including screen trees, commands and
// replies mapped back onto bus values, must decode or fail as
// bin.ErrCorrupt, never panic or recurse without bound. The seeds are a
// recorded chaos run's replayable trace and truncated copies of it.
// (FuzzTraceBinCodec replays the same seeds end to end.)
func FuzzWireLog(f *testing.F) {
	fc := faults.DefaultConfig(0.2)
	fc.MinLife = 1 * sim.Duration(60e9)
	fc.MaxLife = 2 * sim.Duration(60e9)
	var trace bytes.Buffer
	if _, err := harness.Run(harness.RunConfig{
		App: apps.MustLoad("Filters For Selfie"), Tool: "monkey",
		Setting: harness.TaOPTDuration, Duration: 2 * sim.Duration(60e9),
		Instances: 2, Seed: 15, Faults: &fc, BinTrace: &trace, Replayable: true,
	}); err != nil {
		f.Fatal(err)
	}
	raw := trace.Bytes()
	f.Add(raw)
	for _, n := range []int{len(raw) / 2, 512, 64, 8} {
		if n < len(raw) {
			f.Add(raw[:n])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := bin.NewReader(bytes.NewReader(data))
		for err == nil {
			var rec *bin.Record
			if rec, err = br.Next(); err != nil {
				break
			}
			switch rec.Kind {
			case bin.KindCommand, bin.KindFate:
				_ = wire.DecodeCommand(*rec.Command).Kind.String()
			case bin.KindReply:
				if rep := wire.DecodeReply(*rec.Reply); rep.Err != nil {
					_ = rep.Err.Error()
				}
			case bin.KindTree:
				_ = rec.Tree.Abstract()
			}
		}
		if err != io.EOF && !errors.Is(err, bin.ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
