package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"taopt/internal/corpus"
	"taopt/internal/export"
	"taopt/internal/harness"
)

// corpusState is a binary-trace corpus on disk, written by a campaign.
type corpusState struct {
	dir    string
	files  []string // trace paths, sorted
	events int      // trace events across the corpus
	// First-pass outputs every later pass must reproduce: the corpus
	// report and each trace's JSON export, as sha256.
	refReport string
	refJSON   []string
}

func setupCorpus(e *env) (state, error) {
	spec := genCorpusGrid(e.seed)
	dir, err := os.MkdirTemp(e.dir, "corpus-")
	if err != nil {
		return nil, err
	}
	c := &corpusState{dir: dir}
	if err := c.write(spec, e.workers); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// write streams every cell of spec into the corpus through the campaign's
// BinTraceDir, then stores each trace in canonical record order. A live
// stream interleaves the instances' events; the canonical form groups them,
// and is a byte fixed point of ReadBin → WriteBin, which verify checks.
func (c *corpusState) write(spec gridSpec, workers int) error {
	camp := harness.NewCampaign(harness.CampaignConfig{
		Apps: spec.Apps, Tools: spec.Tools, Duration: spec.Duration,
		Seed: spec.Seed, Workers: workers, BinTraceDir: c.dir,
	})
	if err := camp.Prefetch(nil, spec.Settings...); err != nil {
		return err
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, en := range entries {
		if strings.HasSuffix(en.Name(), corpus.Ext) {
			c.files = append(c.files, filepath.Join(c.dir, en.Name()))
		}
	}
	sort.Strings(c.files)
	for _, path := range c.files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		run, err := export.ReadBin(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var buf bytes.Buffer
		if err := run.WriteBin(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		for _, inst := range run.Instances {
			c.events += len(inst.Events)
		}
	}
	return nil
}

// pass scans and renders the corpus report, then renders every trace to its
// JSON export. It returns each trace's render latency and the number of
// outputs that differ from the first pass.
func (c *corpusState) pass(tr *tracer, req int64) ([]float64, int, error) {
	failed := 0
	t0 := time.Now()
	stats, err := corpus.ScanDir(c.dir)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	h := sha256.New()
	if err := corpus.Render(h, stats); err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	tr.add(span{Name: "corpus.scan", Req: req, N: int64(len(stats))}, t0, t1)
	tr.add(span{Name: "corpus.render", Req: req}, t1, t2)
	report := hex.EncodeToString(h.Sum(nil))
	if c.refReport == "" {
		c.refReport = report
	} else if report != c.refReport {
		fmt.Printf("  corpus report diverged from the first pass\n")
		failed++
	}

	lat := make([]float64, 0, len(c.files))
	for i, path := range c.files {
		a := time.Now()
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		run, err := export.ReadBin(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		b := time.Now()
		jh := sha256.New()
		if err := run.Write(jh); err != nil {
			return nil, 0, err
		}
		end := time.Now()
		tr.add(span{Name: "export.read_bin", Req: req, N: int64(len(data))}, a, b)
		tr.add(span{Name: "export.write_json", Req: req}, b, end)
		lat = append(lat, float64(end.Sub(a).Nanoseconds())/1e6)
		sum := hex.EncodeToString(jh.Sum(nil))
		if len(c.refJSON) < len(c.files) {
			c.refJSON = append(c.refJSON, sum)
		} else if sum != c.refJSON[i] {
			fmt.Printf("  %s: JSON render diverged from the first pass\n", filepath.Base(path))
			failed++
		}
	}
	return lat, failed, nil
}

func (c *corpusState) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{classes: map[string][]float64{}}
	start := time.Now()
	for req := int64(1); req == 1 || time.Since(start) < d; req++ {
		p0 := time.Now()
		lat, failed, err := c.pass(tr, req)
		if err != nil {
			return nil, err
		}
		dur := time.Since(p0)
		ph.windows = append(ph.windows, window{dur: dur, work: float64(c.events), lat: []float64{float64(dur.Nanoseconds()) / 1e6}})
		ph.classes["trace"] = append(ph.classes["trace"], lat...)
		ph.ops += 1 + len(lat) // the corpus report, then each trace
		ph.failed += failed
	}
	c.verify(ph)
	h := sha256.New()
	fmt.Fprintln(h, c.refReport, c.refJSON)
	ph.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return ph, nil
}

func (c *corpusState) figures(ph *phase) []figure {
	return []figure{
		{"trace_events_per_s", ph.rate(), "events/s"},
		{"corpus_pass_ms", median(ph.lat()), "ms"},
		{"corpus_passes", float64(len(ph.windows)), "count"},
		{"trace_render_ms_p50", percentile(ph.classes["trace"], 50), "ms"},
		{"trace_render_ms_p90", percentile(ph.classes["trace"], 90), "ms"},
	}
}

// verify checks, outside the timed window, that every stored trace is a
// byte fixed point of ReadBin → WriteBin.
func (c *corpusState) verify(ph *phase) {
	for _, path := range c.files {
		ph.ops++
		data, err := os.ReadFile(path)
		if err == nil {
			var run *export.Run
			if run, err = export.ReadBin(bytes.NewReader(data)); err == nil {
				var buf bytes.Buffer
				if err = run.WriteBin(&buf); err == nil && !bytes.Equal(buf.Bytes(), data) {
					err = fmt.Errorf("re-encoding changed %d bytes to %d", len(data), buf.Len())
				}
			}
		}
		if err != nil {
			fmt.Printf("  %s: ReadBin → WriteBin round trip: %v\n", filepath.Base(path), err)
			ph.failed++
		}
	}
}

func (c *corpusState) layers(tr *tracer, _ *phase, _ runtimeSnap) (map[string]float64, error) {
	return map[string]float64{
		"corpus.scan_ms":       median(tr.durationsMS("corpus.scan")),
		"corpus.render_ms":     median(tr.durationsMS("corpus.render")),
		"export.read_bin_ms":   median(tr.durationsMS("export.read_bin")),
		"export.write_json_ms": median(tr.durationsMS("export.write_json")),
	}, nil
}

func (c *corpusState) close() error { return os.RemoveAll(c.dir) }
