// Package crash collects app crashes and deduplicates them by stack-trace
// code locations, the analogue of the paper's Logcat-based crash collection
// (Section 6.1): "Code locations in stack traces are used to identify unique
// crashes."
package crash

import (
	"fmt"
	"hash/fnv"
	"strings"

	"taopt/internal/sim"
)

// Report is one observed crash.
type Report struct {
	App       string
	Frames    []string // innermost first
	Signature Signature
	At        sim.Duration
	Instance  int
}

// Signature identifies a unique crash: a hash of the stack trace's code
// locations.
type Signature string

// SignatureOf computes the deduplication key for a stack trace.
func SignatureOf(frames []string) Signature {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write([]byte(codeLocation(f)))
		h.Write([]byte{'\n'})
	}
	return Signature(fmt.Sprintf("crash:%016x", h.Sum64()))
}

// codeLocation extracts the "Class.method(File.java:line)" code location from
// a frame, tolerating surrounding log noise such as "at " prefixes.
func codeLocation(frame string) string {
	f := strings.TrimSpace(frame)
	f = strings.TrimPrefix(f, "at ")
	return f
}

// Log accumulates crash reports and answers uniqueness queries.
// The zero value is not usable; use NewLog.
type Log struct {
	app     string
	reports []Report
	bySig   map[Signature][]int // signature -> report indexes
}

// NewLog returns an empty log for the named app.
func NewLog(appName string) *Log {
	return &Log{app: appName, bySig: make(map[Signature][]int)}
}

// Record adds a crash observed on instance at virtual time t and returns the
// report. The report's signature is computed from frames.
func (l *Log) Record(frames []string, t sim.Duration, instance int) Report {
	r := Report{
		App:       l.app,
		Frames:    append([]string(nil), frames...),
		Signature: SignatureOf(frames),
		At:        t,
		Instance:  instance,
	}
	l.bySig[r.Signature] = append(l.bySig[r.Signature], len(l.reports))
	l.reports = append(l.reports, r)
	return r
}

// Unique returns the number of distinct crashes.
func (l *Log) Unique() int { return len(l.bySig) }

// Reports returns all reports in arrival order.
func (l *Log) Reports() []Report { return l.reports }

// UniqueUnion returns the number of distinct signatures across the logs.
func UniqueUnion(logs []*Log) int {
	seen := make(map[Signature]bool)
	for _, l := range logs {
		for sig := range l.bySig {
			seen[sig] = true
		}
	}
	return len(seen)
}
