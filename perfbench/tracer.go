package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Times are nanoseconds since the tracer's origin. Parent is the ID of the
// span that caused this one (0 for a root), Req groups the spans of one
// request or grid pass, Slot is the worker lane that ran it, and N carries
// the call's size (events, bytes) where one exists.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Slot   int    `json:"slot,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost beyond a nil
// check.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.origin).Nanoseconds() }

// newID reserves a span ID, so a parent can be named by its children
// before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records s, which ran from start to end, under s.ID if one was
// reserved and a fresh ID otherwise.
func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start, s.End = t.at(start), t.at(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// named returns a copy of every span called name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations of every span called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.ms())
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
