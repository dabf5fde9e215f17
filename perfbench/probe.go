package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"taopt/internal/apps"
	"taopt/internal/export"
	"taopt/internal/graph"
	"taopt/internal/harness"
	"taopt/internal/scenario"
	"taopt/internal/trace/bin"
)

// observeVisits is the long-trace Observe probe's length.
const observeVisits = 10000

// probe times fixed calls into single modules' public functions, on inputs
// derived from the seed, recording a span around each call. Each figure is
// a median over repetitions, so one preempted call does not move it.
func probe(e *env, tr *tracer) (map[string]float64, error) {
	// timed runs fn reps times and returns the median duration in ms.
	timed := func(name string, reps int, fn func() error) (float64, error) {
		var ms []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			end := time.Now()
			tr.add(span{Name: name}, start, end)
			ms = append(ms, float64(end.Sub(start).Nanoseconds())/1e6)
		}
		return median(ms), nil
	}
	m := make(map[string]float64)

	// app: generate every grid app; the figure is the mean over apps.
	var gen []float64
	for _, name := range genGrid(e.seed).Apps {
		ms, err := timed("app.generate", 3, func() error { _, err := apps.Load(name); return err })
		if err != nil {
			return nil, err
		}
		gen = append(gen, ms)
	}
	m["app.generate_ms"] = mean(gen)

	// scenario and harness lowering: the service's submit path for each
	// warm document.
	var compile, lower []float64
	for _, d := range genWarmDocs(e.seed) {
		body := d.body("probe")
		var rs *scenario.RunSpec
		ms, err := timed("scenario.compile", 20, func() (err error) { rs, err = scenario.CompileRun(body); return err })
		if err != nil {
			return nil, err
		}
		compile = append(compile, ms*1e3)
		if ms, err = timed("harness.lower", 3, func() error { _, err := harness.FromRunScenario(rs); return err }); err != nil {
			return nil, err
		}
		lower = append(lower, ms)
	}
	m["scenario.compile_us"] = mean(compile)
	m["harness.lower_ms"] = mean(lower)

	// graph: the offline partition of one baseline cell's combined traces.
	spec := genGrid(e.seed)
	res, err := harness.Run(harness.RunConfig{
		App: apps.MustLoad("Marvel Comics"), Tool: "monkey", Setting: harness.BaselineParallel,
		Duration: spec.Duration, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder()
	for _, t := range res.Traces() {
		b.AddTrace(t)
	}
	g := b.Graph()
	if m["graph.partition_ms"], err = timed("graph.partition", 5, func() error {
		graph.OfflinePartition(g, graph.DefaultPartitionOptions())
		return nil
	}); err != nil {
		return nil, err
	}

	// core: the tracked Observe path over the long-trace stream.
	events, book, err := harness.ObserveStream("Marvel Comics", observeVisits)
	if err != nil {
		return nil, err
	}
	ms, err := timed("core.observe", 3, func() error {
		a := harness.NewObserveAnalyzer(book, observeVisits, false)
		for _, ev := range events {
			a.Observe(ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["core.observe_ns"] = ms * 1e6 / float64(len(events))

	codec, err := probeCodec(e, timed)
	if err != nil {
		return nil, err
	}
	for k, v := range codec {
		m[k] = v
	}
	return m, nil
}

// probeCodec measures the binary trace codec against the JSON export on one
// recorded telemetry run: events per second each way, and bytes per event.
func probeCodec(e *env, timed func(string, int, func() error) (float64, error)) (map[string]float64, error) {
	spec := genCorpusGrid(e.seed)
	res, err := harness.Run(harness.RunConfig{
		App: apps.MustLoad("Filters For Selfie"), Tool: "monkey", Setting: harness.TaOPTDuration,
		Duration: 3 * spec.Duration, Instances: 4, Seed: spec.Seed, Telemetry: true,
	})
	if err != nil {
		return nil, err
	}
	run := export.FromResult(res)
	var binBuf, jsonBuf bytes.Buffer
	if err := run.WriteBin(&binBuf); err != nil {
		return nil, err
	}
	if err := run.Write(&jsonBuf); err != nil {
		return nil, err
	}
	events := 0
	for _, inst := range run.Instances {
		events += len(inst.Events)
	}
	n := float64(events)
	m := map[string]float64{
		"bin.bytes_per_event":         float64(binBuf.Len()) / n,
		"export.json_bytes_per_event": float64(jsonBuf.Len()) / n,
	}
	rate := func(name, metric string, fn func() error) error {
		ms, err := timed(name, 5, fn)
		m[metric] = n / (ms / 1e3)
		return err
	}
	if err := rate("bin.encode", "bin.encode_events_per_s", func() error { return run.WriteBin(io.Discard) }); err != nil {
		return nil, err
	}
	// Decoding is timed at the record level, bin.Reader.Next, beneath the
	// export rebuild.
	if err := rate("bin.decode", "bin.decode_events_per_s", func() error {
		r, err := bin.NewReader(bytes.NewReader(binBuf.Bytes()))
		if err != nil {
			return err
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := rate("export.json_encode", "export.json_encode_events_per_s", func() error { return run.Write(io.Discard) }); err != nil {
		return nil, err
	}
	if err := rate("export.json_decode", "export.json_decode_events_per_s", func() error {
		_, err := export.Read(bytes.NewReader(jsonBuf.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}
