package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/scenario"
	"taopt/internal/service"
)

// mixedNewEvery makes every mixedNewEvery-th service-mixed draw a new
// configuration.
const mixedNewEvery = 10

// timedRepo decorates the service's Repository seam with a span around
// every cell read and write. It times the store from outside the service
// package, which the determinism lint keeps free of clock reads.
type timedRepo struct {
	service.Repository
	tr atomic.Pointer[tracer]
}

func cellBytes(c service.Cell) int64 { return int64(len(c.Export) + len(c.Trace) + len(c.Telemetry)) }

func (r *timedRepo) GetCell(hash string) (service.Cell, error) {
	start := time.Now()
	c, err := r.Repository.GetCell(hash)
	r.tr.Load().add(span{Name: "service.get_cell", N: cellBytes(c)}, start, time.Now())
	return c, err
}

func (r *timedRepo) PutCell(c service.Cell) error {
	start := time.Now()
	err := r.Repository.PutCell(c)
	r.tr.Load().add(span{Name: "service.put_cell", N: cellBytes(c)}, start, time.Now())
	return err
}

// serviceState is an in-process taoptd: a Service over a FileRepo, served
// by its HTTP handler on a loopback listener, with a warm cache.
type serviceState struct {
	mixed   bool
	clients int
	dir     string
	repo    *timedRepo
	svc     *service.Service
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	warm    []runDoc
	warmSum []string // sha256 of each warm document's export
	seq     *opSeq
	// newCfgs tracks every new configuration across phases by its run
	// seed: how many submits were answered "miss", and the export served.
	newCfgs map[int64]*newCfg
	// verified holds the documents already recomputed offline.
	verified map[runDoc]bool
	// Figures of the latest phase, for layers.
	computeMS []float64
	stats     service.Stats // counter change across the phase
}

type newCfg struct {
	misses int
	sum    string
}

func setupService(e *env, mixed bool) (state, error) {
	dir, err := os.MkdirTemp(e.dir, "taoptd-")
	if err != nil {
		return nil, err
	}
	s := &serviceState{
		mixed: mixed, clients: e.workers, dir: dir,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * e.workers, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		warm:     genWarmDocs(e.seed),
		newCfgs:  make(map[int64]*newCfg),
		verified: make(map[runDoc]bool),
	}
	newEvery := 0
	if mixed {
		newEvery = mixedNewEvery
	}
	s.seq = newOpSeq(e.seed, len(s.warm), newEvery)
	if err := s.start(e.workers); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start boots the service and computes every warm document once.
func (s *serviceState) start(workers int) error {
	fr, err := service.NewFileRepo(s.dir)
	if err != nil {
		return err
	}
	s.repo = &timedRepo{Repository: fr}
	if s.svc, err = service.New(service.Config{Repo: s.repo, Workers: workers}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: service.NewHandler(s.svc), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	s.warmSum = make([]string, len(s.warm))
	errs := make([]error, len(s.warm))
	var wg sync.WaitGroup
	for i, d := range s.warm {
		wg.Add(1)
		go func(i int, d runDoc) {
			defer wg.Done()
			r, err := s.do(d.body(fmt.Sprintf("warm %d", i)), nil, 0, 0, 0)
			switch {
			case err != nil:
				errs[i] = err
			case r.cache != "miss":
				errs[i] = fmt.Errorf("warm-up submit of %s answered %q, want miss", d.App, r.cache)
			default:
				s.warmSum[i] = r.sum
			}
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// reply is one op's outcome: submit with ?wait=1, then fetch the export.
type reply struct {
	cache string
	sum   string // sha256 of the export body
}

// do submits body and fetches the run's export. A transport error or a
// non-200 status is an error.
func (s *serviceState) do(body []byte, tr *tracer, parent, req int64, client int) (reply, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	r := reply{cache: resp.Header.Get("X-Taopt-Cache")}
	t1 := time.Now()
	tr.add(span{Name: "service.submit", Parent: parent, Req: req, Slot: client}, t0, t1)

	resp, err = s.client.Get(s.base + "/v1/runs/" + resp.Header.Get("X-Taopt-Run-Id") + "/export")
	if err != nil {
		return reply{}, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("export: status %d", resp.StatusCode)
	}
	tr.add(span{Name: "service.export", Parent: parent, Req: req, Slot: client, N: int64(len(body))}, t1, time.Now())
	r.sum = sum(body)
	return r, nil
}

func (s *serviceState) getStats() (service.Stats, error) {
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return service.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Stats{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var body struct {
		Stats service.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return service.Stats{}, fmt.Errorf("stats: %w", err)
	}
	return body.Stats, nil
}

// sample is one completed op of a client.
type sample struct {
	op  op
	r   reply
	err error
	ms  float64
	end time.Duration // completion time since the phase started
}

// run drives the closed loop: each client sends its next op only after the
// previous one's export arrived, until d has passed.
func (s *serviceState) run(d time.Duration, tr *tracer) (*phase, error) {
	s.repo.tr.Store(tr)
	defer s.repo.tr.Store(nil)
	before, err := s.getStats()
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				o := s.seq.next()
				body := s.body(o)
				o.rendezvous(deadline)
				reqID := tr.newID()
				t0 := time.Now()
				r, err := s.do(body, tr, reqID, int64(o.K), client)
				t1 := time.Now()
				tr.add(span{ID: reqID, Name: "service.request", Req: int64(o.K), Slot: client}, t0, t1)
				mu.Lock()
				samples = append(samples, sample{o, r, err, float64(t1.Sub(t0).Nanoseconds()) / 1e6, t1.Sub(start)})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{windows: opWindows(samples)}
	after, err := s.getStats()
	if err != nil {
		return nil, err
	}
	s.stats = service.Stats{
		Submitted: after.Submitted - before.Submitted, Computed: after.Computed - before.Computed,
		CacheHits: after.CacheHits - before.CacheHits, Coalesced: after.Coalesced - before.Coalesced,
		Failures: after.Failures - before.Failures,
	}
	s.check(ph, samples)
	s.verifyOffline(ph, samples)
	return ph, nil
}

// opsPerWindow is how many consecutive completions form one window.
const opsPerWindow = 50

// opWindows slices the successful ops, in completion order, into windows of
// opsPerWindow; a short remainder joins the last window. A window lasts from
// the previous window's last completion to its own.
func opWindows(samples []sample) []window {
	var ok []sample
	for _, sm := range samples {
		if sm.err == nil {
			ok = append(ok, sm)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].end < ok[j].end })
	var out []window
	var from time.Duration
	for i := 0; i < len(ok); {
		n := opsPerWindow
		if len(ok)-i < 2*opsPerWindow {
			n = len(ok) - i
		}
		chunk := ok[i : i+n]
		w := window{dur: chunk[n-1].end - from, work: 2 * float64(n)} // submit + export
		for _, sm := range chunk {
			w.lat = append(w.lat, sm.ms)
		}
		out = append(out, w)
		from = chunk[n-1].end
		i += n
	}
	return out
}

// body renders op o's document; every submit carries a fresh name.
func (s *serviceState) body(o op) []byte {
	name := fmt.Sprintf("op %d", o.K)
	if o.Warm >= 0 {
		return s.warm[o.Warm].body(name)
	}
	return o.New.body(name)
}

// check scores every sample: a warm re-submit must be a hit serving exactly
// the warm-up export, and every new configuration must be computed exactly
// once, with every submit of it served the same bytes.
func (s *serviceState) check(ph *phase, samples []sample) {
	ph.classes = map[string][]float64{}
	touched := make(map[int64]bool)
	for _, sm := range samples {
		ph.ops++
		if sm.err != nil {
			fmt.Printf("  op %d failed: %v\n", sm.op.K, sm.err)
			ph.failed++
			continue
		}
		if sm.r.cache == "hit" {
			ph.classes["hit"] = append(ph.classes["hit"], sm.ms)
		} else {
			ph.classes["miss"] = append(ph.classes["miss"], sm.ms)
		}
		got := sm.r.sum
		if sm.op.Warm >= 0 {
			if sm.r.cache != "hit" || got != s.warmSum[sm.op.Warm] {
				fmt.Printf("  op %d: warm document %d answered %q with export %.12s, want hit %.12s\n",
					sm.op.K, sm.op.Warm, sm.r.cache, got, s.warmSum[sm.op.Warm])
				ph.failed++
			}
			continue
		}
		nc := s.newCfgs[sm.op.New.Seed]
		if nc == nil {
			nc = &newCfg{sum: got}
			s.newCfgs[sm.op.New.Seed] = nc
		}
		touched[sm.op.New.Seed] = true
		if sm.r.cache == "miss" {
			nc.misses++
		}
		if got != nc.sum {
			fmt.Printf("  op %d: new configuration served two different exports\n", sm.op.K)
			ph.failed++
		}
	}
	for seed := range touched {
		if n := s.newCfgs[seed].misses; n != 1 {
			fmt.Printf("  new configuration seed %d was computed %d times, want once\n", seed, n)
			ph.failed++
		}
	}
	ph.digest = sum([]byte(fmt.Sprint(s.warmSum)))[:16]
	ph.coalesced = s.stats.Coalesced
}

func (s *serviceState) figures(ph *phase) []figure {
	hit, miss := ph.classes["hit"], ph.classes["miss"]
	figs := []figure{
		{"req_per_s", ph.rate(), "req/s"},
		{"hits", float64(len(hit)), "count"},
		{"hit_latency_p50_ms", percentile(hit, 50), "ms"},
		{"hit_latency_p99_ms", percentile(hit, 99), "ms"},
	}
	if s.mixed {
		figs = append(figs,
			figure{"misses", float64(len(miss)), "count"},
			figure{"miss_latency_p50_ms", percentile(miss, 50), "ms"},
			figure{"miss_latency_p90_ms", percentile(miss, 90), "ms"},
			figure{"coalesced", float64(ph.coalesced), "count"})
	}
	return figs
}

// offlineChecks is how many served documents each phase recomputes outside
// the service to compare bytes.
const offlineChecks = 3

// verifyOffline recomputes a few served documents the way the service's own
// backend does (lower, simulate, encode export and binary trace) and
// compares the export bytes: the phase's first new configurations on
// service-mixed, warm documents on service-hit. No document is recomputed
// twice.
func (s *serviceState) verifyOffline(ph *phase, samples []sample) {
	type check struct {
		doc  runDoc
		want string
	}
	var checks []check
	sort.Slice(samples, func(i, j int) bool { return samples[i].op.K < samples[j].op.K })
	for _, sm := range samples {
		if len(checks) == offlineChecks {
			break
		}
		if sm.err != nil || s.mixed != (sm.op.New != nil) {
			continue
		}
		var c check
		if s.mixed {
			c = check{*sm.op.New, sm.r.sum}
		} else {
			c = check{s.warm[sm.op.Warm], s.warmSum[sm.op.Warm]}
		}
		if !s.verified[c.doc] {
			s.verified[c.doc] = true
			checks = append(checks, c)
		}
	}
	s.computeMS = nil
	for _, c := range checks {
		start := time.Now()
		data, err := computeOffline(c.doc)
		s.computeMS = append(s.computeMS, float64(time.Since(start).Nanoseconds())/1e6)
		ph.ops++
		if err != nil || sum(data) != c.want {
			fmt.Printf("  offline recompute of %+v does not match the served export (err %v)\n", c.doc, err)
			ph.failed++
		}
	}
}

// computeOffline is one cache miss's work outside the service: lower the
// document, run the simulation with a binary trace attached, and encode
// the JSON export.
func computeOffline(d runDoc) ([]byte, error) {
	rs, err := scenario.CompileRun(d.body("offline"))
	if err != nil {
		return nil, err
	}
	cfg, err := harness.FromRunScenario(rs)
	if err != nil {
		return nil, err
	}
	var trace bytes.Buffer
	cfg.BinTrace = &trace
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	var exp bytes.Buffer
	if err := export.FromResult(res).Write(&exp); err != nil {
		return nil, err
	}
	return exp.Bytes(), nil
}

func (s *serviceState) layers(tr *tracer, ph *phase, _ runtimeSnap) (map[string]float64, error) {
	gets := tr.named("service.get_cell")
	var getMB []float64
	for _, g := range gets {
		getMB = append(getMB, float64(g.N)/(1<<20))
	}
	m := map[string]float64{
		"service.submit_ms":              median(tr.durationsMS("service.submit")),
		"service.export_ms":              median(tr.durationsMS("service.export")),
		"service.get_cell_ms":            median(tr.durationsMS("service.get_cell")),
		"service.get_cell_calls_per_req": float64(len(gets)) / ph.work(),
		"service.get_cell_mb":            mean(getMB),
		"service.hit_ratio":              float64(s.stats.CacheHits) / float64(s.stats.Submitted),
		"service.coalesced":              float64(s.stats.Coalesced),
		"service.computed":               float64(s.stats.Computed),
		"service.compute_ms":             median(s.computeMS),
		"service.hit_speedup_vs_compute": median(s.computeMS) / median(ph.classes["hit"]),
	}
	if puts := tr.durationsMS("service.put_cell"); len(puts) > 0 {
		m["service.put_cell_ms"] = median(puts)
	}
	if miss := ph.classes["miss"]; len(miss) > 0 {
		m["service.miss_wait_ms"] = median(miss) - median(s.computeMS)
	}
	return m, nil
}

func (s *serviceState) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	s.client.CloseIdleConnections()
	if s.svc != nil {
		errs = append(errs, s.svc.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
