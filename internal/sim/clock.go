// Package sim provides a deterministic discrete-event simulation kernel.
//
// All testing campaigns in this repository run on virtual time: a one-hour,
// five-instance parallel run is a few tens of thousands of events and
// completes in milliseconds, while remaining exactly reproducible for a given
// seed. The kernel is intentionally tiny — a virtual clock, an event heap
// keyed by (time, sequence), and machine-time accounting — because the paper's
// coordination logic only needs event ordering and two notions of time:
//
//   - wall-clock time: how long the campaign has been running (RQ3), and
//   - machine time: the sum over instances of the time each was allocated (RQ4).
package sim

import (
	"fmt"
	"time"
)

// Duration is virtual time elapsed since the start of a run. It is a distinct
// type from time.Duration only by convention; we reuse time.Duration for its
// formatting and arithmetic.
type Duration = time.Duration

// Clock tracks the current virtual time of a scheduler run.
type Clock struct {
	now Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// advance moves the clock forward to t. It panics if t is in the past:
// the scheduler must never deliver events out of order.
func (c *Clock) advance(t Duration) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}
