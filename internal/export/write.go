package export

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"taopt/internal/trace/bin"
)

// indentChunk is the size of the buffer Write streams through.
const indentChunk = 32 << 10

// Write serialises the run as indented JSON, byte for byte what a
// json.Encoder with SetIndent("", " ") writes, in one streamed pass through
// one indentChunk buffer. The hot rows — each instance's events and the
// timeline — and the top-level scalars are appended from their typed
// fields in final indented form. The other sections keep json.Marshal's
// encoding (field order, omitempty, HTML escaping) and appendIndented lays
// them out. Everything that can fail to encode is encoded or checked before
// the first byte is written, so on an encoding error nothing is written;
// a failing w gets no write after its error.
func (r *Run) Write(w io.Writer) error {
	cold, err := r.encodeCold()
	if err != nil {
		return err
	}
	c := &chunkWriter{w: w, buf: make([]byte, 0, indentChunk+512)}
	b := strconv.AppendInt(append(c.buf, "{\n \"version\": "...), int64(r.Version), 10)
	b = appendString(append(b, ",\n \"app\": "...), r.App)
	b = appendString(append(b, ",\n \"tool\": "...), r.Tool)
	b = appendString(append(b, ",\n \"setting\": "...), r.Setting)
	b = strconv.AppendInt(append(b, ",\n \"seed\": "...), r.Seed, 10)
	if r.ScenarioHash != "" {
		b = appendString(append(b, ",\n \"scenario_hash\": "...), r.ScenarioHash)
	}
	b = strconv.AppendInt(append(b, ",\n \"wall_used_ns\": "...), r.WallNS, 10)
	b = strconv.AppendInt(append(b, ",\n \"machine_used_ns\": "...), r.MachineNS, 10)
	b = strconv.AppendInt(append(b, ",\n \"coverage\": "...), int64(r.Coverage), 10)
	b = strconv.AppendInt(append(b, ",\n \"unique_crashes\": "...), int64(r.UniqueCrashes), 10)
	if r.Transport != nil {
		b = appendIndented(append(b, ",\n \"transport\": "...), cold.transport, 1)
	}
	if r.Telemetry != nil {
		b = appendIndented(append(b, ",\n \"telemetry\": "...), cold.telemetry, 1)
	}
	c.buf = append(b, ",\n \"instances\": "...)
	summaries := cold.summaries // writeArray visits the instances in order
	writeArray(c, r.Instances, "\n ", func(b []byte, inst *Instance) []byte {
		// The summary's members without its closing brace, then the events,
		// which spill c.buf as they go.
		sum := summaries[0]
		summaries = summaries[1:]
		c.buf = append(appendIndented(append(b, "\n  "...), sum[:len(sum)-1], 2), ",\n   \"events\": "...)
		writeArray(c, inst.Events, "\n   ", appendEvent)
		return append(c.buf, "\n  }"...)
	})
	if len(r.Subspaces) > 0 {
		c.buf = appendIndented(append(c.buf, ",\n \"subspaces\": "...), cold.subspaces, 1)
	}
	c.buf = append(c.buf, ",\n \"timeline\": "...)
	writeArray(c, r.Timeline, "\n ", appendSample)
	if c.err != nil {
		return c.err
	}
	c.buf = appendIndented(append(c.buf, ",\n \"screens\": "...), cold.screens, 1)
	_, err = w.Write(append(c.buf, "\n}\n"...))
	return err
}

// coldSections holds the sections Write leaves to encoding/json, each
// compact as json.Marshal encodes it; Write decides which of them appear.
type coldSections struct {
	transport, telemetry, subspaces, screens []byte
	summaries                                [][]byte // one per instance
}

// encodeCold encodes the sections Write leaves to encoding/json, and
// rejects a timeline ajs that encoding/json cannot encode, in Run's field
// order, so that its error is the first one Run's json.Marshal would
// report.
func (r *Run) encodeCold() (*coldSections, error) {
	var s coldSections
	var err error
	if s.transport, err = json.Marshal(r.Transport); err != nil {
		return nil, err
	}
	if s.telemetry, err = json.Marshal(r.Telemetry); err != nil {
		return nil, err
	}
	s.summaries = make([][]byte, len(r.Instances))
	for i := range r.Instances {
		if s.summaries[i], err = json.Marshal(&r.Instances[i].InstanceSummary); err != nil {
			return nil, err
		}
	}
	if s.subspaces, err = json.Marshal(r.Subspaces); err != nil {
		return nil, err
	}
	for i := range r.Timeline {
		if f := r.Timeline[i].AJS; math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(f)
			return nil, err
		}
	}
	if s.screens, err = json.Marshal(r.Screens); err != nil {
		return nil, err
	}
	return &s, nil
}

// chunkWriter streams a document through one buffer, handing the buffer to
// w each time it reaches indentChunk bytes. The first write error is kept,
// and nothing is written after it.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) spill() {
	if c.err == nil && len(c.buf) >= indentChunk {
		_, c.err = c.w.Write(c.buf)
		c.buf = c.buf[:0]
	}
}

// writeArray appends rows as encoding/json does a slice field: null when
// nil, [] when empty, else each element as row lays it out (from its own
// newline and indentation on), spilling the buffer after each until a
// write fails. end is the newline and indentation before the closing
// bracket.
func writeArray[T any](c *chunkWriter, rows []T, end string, row func([]byte, *T) []byte) {
	switch {
	case rows == nil:
		c.buf = append(c.buf, "null"...)
		return
	case len(rows) == 0:
		c.buf = append(c.buf, "[]"...)
		return
	}
	c.buf = append(c.buf, '[')
	for i := 0; i < len(rows) && c.err == nil; i++ {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.buf = row(c.buf, &rows[i])
		c.spill()
	}
	c.buf = append(append(c.buf, end...), ']')
}

// appendEvent appends one instances[].events element, laid out four levels
// deep, with Event's omitempty fields left out when zero.
//
//lint:hotpath
func appendEvent(b []byte, ev *Event) []byte {
	b = strconv.AppendInt(append(b, "\n    {\n     \"at_ns\": "...), ev.AtNS, 10)
	b = appendString(append(b, ",\n     \"kind\": "...), ev.Kind)
	if ev.Widget != "" {
		b = appendString(append(b, ",\n     \"widget\": "...), ev.Widget)
	}
	if ev.From != 0 {
		b = strconv.AppendUint(append(b, ",\n     \"from\": "...), ev.From, 10)
	}
	b = strconv.AppendUint(append(b, ",\n     \"to\": "...), ev.To, 10)
	b = appendString(append(b, ",\n     \"activity\": "...), ev.Activity)
	if ev.Crashed {
		b = append(b, ",\n     \"crashed\": true"...)
	}
	if ev.Enforced {
		b = append(b, ",\n     \"enforced\": true"...)
	}
	return append(b, "\n    }"...)
}

// appendSample appends one timeline element, laid out two levels deep,
// with ajs left out when zero. The ajs must be finite (encodeCold checks).
//
//lint:hotpath
func appendSample(b []byte, s *bin.Sample) []byte {
	b = strconv.AppendInt(append(b, "\n  {\n   \"wall_ns\": "...), s.WallNS, 10)
	b = strconv.AppendInt(append(b, ",\n   \"machine_ns\": "...), s.MachineNS, 10)
	b = strconv.AppendInt(append(b, ",\n   \"covered\": "...), int64(s.Covered), 10)
	b = strconv.AppendInt(append(b, ",\n   \"crashes\": "...), int64(s.Crashes), 10)
	if s.AJS != 0 {
		b = appendFloat(append(b, ",\n   \"ajs\": "...), s.AJS)
	}
	return append(b, "\n  }"...)
}

// plainString marks the bytes encoding/json copies into a string unescaped
// under its default HTML-safe escaping: printable ASCII except " \ < > &.
var plainString = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string. One of plain bytes only is
// copied as-is; any other goes through json.Marshal, so its escaping,
// U+2028/U+2029 and invalid UTF-8 come out as encoding/json's by
// construction.
//
//lint:hotpath
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainString[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json formats a float64: 'f',
// or 'e' for magnitudes below 1e-6 and from 1e21 on, with a two-digit
// negative exponent cut to one digit (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
