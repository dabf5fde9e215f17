package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"taopt/internal/bus"
	"taopt/internal/export"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// replayMain implements the replay subcommand: re-drive a replayable binary
// trace into the run's export without re-running any tool decision logic,
// or dump a trace one line per record (diff two dumps to find where two
// runs part).
//
//	tracetool replay run.taoptb
//	tracetool replay -out replayed.json run.taoptb
//	tracetool replay -dump run.taoptb
func replayMain(args []string) {
	fs := flag.NewFlagSet("tracetool replay", flag.ExitOnError)
	out := fs.String("out", "", "write the replayed export JSON to this file")
	dump := fs.Bool("dump", false, "print one line per record instead of replaying")
	fs.Parse(args)
	if fs.NArg() != 1 || *dump && *out != "" {
		fatalf("usage: tracetool replay [-out run.json] [-dump] <run.taoptb>")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if *dump {
		if err := dumpRecords(os.Stdout, f); err != nil {
			fatalf("%s: %v", path, err)
		}
		return
	}
	run, decisions, err := export.Replay(f)
	if err != nil {
		fatalf("%s: %v", path, err)
	}

	sum := sha256.New()
	if err := run.Write(sum); err != nil {
		fatalf("serialising replayed export: %v", err)
	}
	fmt.Printf("replayed:  %s / %s / %s (seed %d)\n", run.App, run.Tool, run.Setting, run.Seed)
	fmt.Printf("coverage:  %d methods, %d unique crashes, %d instances, %d subspaces\n",
		run.Coverage, run.UniqueCrashes, len(run.Instances), len(run.Subspaces))
	fmt.Printf("decisions: %d re-derived\n", decisions.Len())
	fmt.Printf("export sha256: %s\n", hex.EncodeToString(sum.Sum(nil)))

	if *out != "" {
		o, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		if err := run.Write(o); err != nil {
			fatalf("writing replayed export: %v", err)
		}
		if err := o.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("replayed export written to %s\n", *out)
	}
}

// dumpRecords prints the stream's header, then one stable line per record:
// the protocol time (blank for other kinds), the kind and its payload. A
// stream the Reader rejects, a truncated one say, prints every record it
// can read and then fails with bin.ErrCorrupt.
func dumpRecords(w io.Writer, r io.Reader) error {
	br, err := bin.NewReader(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "header %+v\n", br.Header())
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		at := ""
		if rec.Kind.Protocol() && rec.Kind != bin.KindReplay {
			at = fmt.Sprintf("%.3f", rec.At.Seconds())
		}
		fmt.Fprintf(w, "%12s %-10v %s\n", at, rec.Kind, payload(rec))
	}
}

// payload renders the record's meaningful field.
func payload(rec *bin.Record) string {
	switch rec.Kind {
	case bin.KindEvent, bin.KindDelivered:
		return fmt.Sprintf("%+v", rec.Event)
	case bin.KindSample:
		return fmt.Sprintf("%+v", rec.Sample)
	case bin.KindDecision:
		return fmt.Sprintf("%+v", rec.Decision)
	case bin.KindInstance:
		return fmt.Sprintf("%+v", rec.Summary)
	case bin.KindSubspace:
		return fmt.Sprintf("%+v", rec.Subspace)
	case bin.KindScreen:
		return fmt.Sprintf("%+v", rec.Screen)
	case bin.KindTransport, bin.KindAccounting:
		// Print the command mix's counts, not its address.
		t := rec.Transport
		mix := t.CommandMix
		t.CommandMix = nil
		s := fmt.Sprintf("%+v", t)
		if mix != nil {
			s = strings.Replace(s, "CommandMix:<nil>", fmt.Sprintf("CommandMix:%+v", *mix), 1)
		}
		return s
	case bin.KindMetric:
		return fmt.Sprintf("%+v", rec.Metric)
	case bin.KindEnd:
		return fmt.Sprintf("%+v", rec.End)
	case bin.KindReplay:
		return fmt.Sprintf("%+v", *rec.Replay)
	case bin.KindTree:
		return fmt.Sprintf("%v activity=%s nodes=%d", ui.Signature(rec.Screen.Sig), rec.Tree.Activity, rec.Tree.Root.Size())
	case bin.KindCommand, bin.KindFate:
		c := *rec.Command
		return fmt.Sprintf("%s inst=%d screen=%v widget=%q coordinator=%v",
			bus.CommandKind(c.Kind), c.Instance, ui.Signature(c.Screen), c.Widget, c.Coord)
	case bin.KindReply:
		return fmt.Sprintf("%+v", *rec.Reply)
	case bin.KindLease:
		return fmt.Sprintf("inst=%d", rec.Lease)
	case bin.KindTick, bin.KindHeader, bin.KindStrDef, bin.KindSigDef:
	}
	return ""
}
