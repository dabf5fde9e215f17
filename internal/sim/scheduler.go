package sim

// Event is a unit of simulated work. Fire is invoked when the scheduler's
// clock reaches the event's due time. Fire may schedule further events.
type Event interface {
	Fire(s *Scheduler)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(s *Scheduler)

// Fire calls f(s).
func (f EventFunc) Fire(s *Scheduler) { f(s) }

type scheduled struct {
	at  Duration
	seq uint64 // tie-breaker: FIFO among events due at the same instant
	ev  Event
}

// eventHeap is a binary min-heap of scheduled events ordered by (at, seq).
// It sifts the values directly instead of going through container/heap,
// whose Push and Pop box every element into an interface. (at, seq) is a
// strict total order, so any correct heap pops the same sequence.
type eventHeap []scheduled

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds it to the heap.
//
//lint:hotpath
func (h *eventHeap) push(it scheduled) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// cleared so the backing array does not keep the fired Event alive.
//
//lint:hotpath
func (h *eventHeap) pop() scheduled {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = scheduled{}
	q = q[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && q.less(l, least) {
			least = l
		}
		if r := l + 1; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Scheduler is a deterministic discrete-event loop. Events scheduled for the
// same instant fire in the order they were scheduled. Scheduler is not safe
// for concurrent use; the whole simulation is single-threaded by design so
// that runs are exactly reproducible.
type Scheduler struct {
	clock     Clock
	heap      eventHeap
	seq       uint64
	halt      bool
	processed uint64
}

// NewScheduler returns an empty scheduler at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Duration { return s.clock.Now() }

// At schedules ev to fire at absolute virtual time t. Scheduling in the past
// fires the event at the current time (ordering after already-queued events
// for that instant).
//
//lint:hotpath
func (s *Scheduler) At(t Duration, ev Event) {
	if t < s.clock.Now() {
		t = s.clock.Now()
	}
	s.seq++
	s.heap.push(scheduled{at: t, seq: s.seq, ev: ev})
}

// After schedules ev to fire d after the current virtual time.
func (s *Scheduler) After(d Duration, ev Event) { s.At(s.clock.Now()+d, ev) }

// Halt stops the run loop after the currently firing event returns.
// Pending events are discarded by Run.
func (s *Scheduler) Halt() { s.halt = true }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Processed returns the number of events fired since the scheduler was
// created. It is the denominator of the benchmark harness's
// virtual-events-per-second figure: a deterministic measure of how much
// simulated work a run performed, independent of wall time.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Run fires events in order until the queue is empty, the clock passes
// deadline (events due strictly after deadline are not fired), or Halt is
// called. It returns the virtual time at which the loop stopped.
//
// A zero deadline means "no deadline".
//
//lint:hotpath
func (s *Scheduler) Run(deadline Duration) Duration {
	s.halt = false
	for len(s.heap) > 0 && !s.halt {
		if deadline != 0 && s.heap[0].at > deadline {
			s.clock.advance(deadline)
			break
		}
		next := s.heap.pop()
		s.clock.advance(next.at)
		s.processed++
		next.ev.Fire(s)
	}
	if s.halt {
		clear(s.heap)
		s.heap = s.heap[:0]
	}
	return s.clock.Now()
}
