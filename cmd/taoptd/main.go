// Command taoptd is the long-running campaign service: an HTTP/JSON API to
// submit scenario-DSL run documents, poll their status, and fetch the
// resulting v5 exports, telemetry digests and binary traces. Results are
// cached by the canonical scenario hash of the run configuration (minus the
// document name), so identical requests — the overwhelming majority at
// fleet scale — are cache hits served byte-identically to a fresh compute,
// and N concurrent identical submits compute exactly once.
//
// Usage:
//
//	taoptd                          # in-memory store on :8347
//	taoptd -data /var/lib/taopt     # durable file store
//	taoptd -addr :9000 -workers 4
//
// Walkthrough (see also README.md):
//
//	curl -s -X POST --data-binary @run.json 'localhost:8347/v1/runs?wait=1'
//	curl -s localhost:8347/v1/runs/r-000001/export
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"taopt/internal/cli"
	"taopt/internal/service"
)

var fatalf = cli.Fatalf("taoptd")

// Connection time bounds. A client gets readHeaderTimeout to send its
// request headers and an idle keep-alive connection is closed after
// idleTimeout. Nothing bounds writing the response: a ?wait=1 submit holds
// its request open for the whole compute.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr    = flag.String("addr", ":8347", "listen address")
		dataDir = flag.String("data", "", "data directory for the durable file store (empty = in-memory)")
		workers = flag.Int("workers", 0, "max concurrently computed runs (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	cfg := service.Config{Workers: *workers}
	store := "memory"
	if *dataDir != "" {
		repo, err := service.NewFileRepo(*dataDir)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Repo = repo
		store = *dataDir
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer svc.Close()

	// Bind before announcing readiness so scripts can poll the printed line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "taoptd: listening on %s (store: %s, workers: %d)\n",
		ln.Addr(), store, *workers)
	srv := &http.Server{
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		fatalf("%v", err)
	case sig := <-stop:
		// A second signal kills the process the default way.
		signal.Stop(stop)
		fmt.Fprintf(os.Stderr, "taoptd: %v: draining in-flight requests\n", sig)
	}
	// Shutdown returns once every in-flight request has been answered;
	// the deferred Close then drains queued computes and closes the store.
	if err := srv.Shutdown(context.Background()); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
}
