package sim

import (
	"container/heap"
	"slices"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	var c Clock
	c.advance(5)
	if c.Now() != 5 {
		t.Fatalf("Now = %v, want 5", c.Now())
	}
	c.advance(5) // same instant is fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards clock")
		}
	}()
	c.advance(4)
}

func TestMeter(t *testing.T) {
	m := NewMeter(100)
	if m.Exhausted() {
		t.Fatal("fresh meter exhausted")
	}
	if m.Charge(60) {
		t.Fatal("60/100 should not exhaust")
	}
	if got := m.Remaining(); got != 40 {
		t.Fatalf("Remaining = %v, want 40", got)
	}
	if !m.Charge(50) {
		t.Fatal("110/100 should exhaust")
	}
	if m.Used() != 110 {
		t.Fatalf("Used = %v, want 110", m.Used())
	}

	unlimited := NewMeter(0)
	unlimited.Charge(1 << 40)
	if unlimited.Exhausted() {
		t.Fatal("unlimited meter exhausted")
	}
}

func TestMeterNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	NewMeter(10).Charge(-1)
}

func TestSchedulerFiresInOrder(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.At(30, EventFunc(func(*Scheduler) { fired = append(fired, 3) }))
	s.At(10, EventFunc(func(*Scheduler) { fired = append(fired, 1) }))
	s.At(20, EventFunc(func(*Scheduler) { fired = append(fired, 2) }))
	end := s.Run(0)
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, EventFunc(func(*Scheduler) { fired = append(fired, i) }))
	}
	s.Run(0)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", fired)
		}
	}
}

// TestSchedulerTieBreakIsInsertionOrder pins the seq tie-break: events due
// at one instant fire strictly in scheduling order, even when they were
// interleaved with events for other instants, and events an event schedules
// for the current instant fire after everything already queued there —
// including past-time schedules clamped to now. The whole fault-injection
// and coordination machinery leans on this order being stable.
func TestSchedulerTieBreakIsInsertionOrder(t *testing.T) {
	s := NewScheduler()
	var fired []string
	mark := func(l string) Event { return EventFunc(func(*Scheduler) { fired = append(fired, l) }) }

	// Interleave insertions across two instants; heap order must not leak.
	s.At(20, mark("b0"))
	s.At(10, mark("a0"))
	s.At(20, mark("b1"))
	s.At(10, mark("a1"))
	s.At(20, mark("b2"))
	s.At(10, EventFunc(func(sc *Scheduler) {
		fired = append(fired, "a2")
		// Scheduled mid-fire at the current instant (one directly, one via a
		// past time clamped to now): both queue behind a3, in this order.
		sc.At(10, mark("a4"))
		sc.At(3, mark("a5"))
	}))
	s.At(10, mark("a3"))

	s.Run(0)
	want := "a0,a1,a2,a3,a4,a5,b0,b1,b2"
	got := ""
	for i, l := range fired {
		if i > 0 {
			got += ","
		}
		got += l
	}
	if got != want {
		t.Fatalf("fire order %s, want %s", got, want)
	}
}

func TestSchedulerDeadline(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, EventFunc(func(*Scheduler) { fired++ }))
	s.At(50, EventFunc(func(*Scheduler) { fired++ }))
	end := s.Run(20)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event past deadline must not fire)", fired)
	}
	if end != 20 {
		t.Fatalf("end = %v, want clock parked at deadline 20", end)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1, EventFunc(func(sc *Scheduler) { fired++; sc.Halt() }))
	s.At(2, EventFunc(func(*Scheduler) { fired++ }))
	s.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after Halt", fired)
	}
	if s.Pending() != 0 {
		t.Fatal("Halt must drain the queue")
	}
}

func TestSchedulerEventsCanSchedule(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var step func(*Scheduler)
	step = func(sc *Scheduler) {
		depth++
		if depth < 100 {
			sc.After(3, EventFunc(step))
		}
	}
	s.After(3, EventFunc(step))
	end := s.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 300 {
		t.Fatalf("end = %v, want 300", end)
	}
}

func TestSchedulerPastEventFiresNow(t *testing.T) {
	s := NewScheduler()
	var at Duration = -1
	s.At(10, EventFunc(func(sc *Scheduler) {
		sc.At(5, EventFunc(func(sc2 *Scheduler) { at = sc2.Now() }))
	}))
	s.Run(0)
	if at != 10 {
		t.Fatalf("past-scheduled event fired at %v, want 10", at)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(7)
	f1 := root.Fork(1)
	f2 := root.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different labels should diverge")
	}
	// Forking must not perturb the parent stream.
	a := NewRNG(7)
	a.Fork(1)
	b := NewRNG(7)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork perturbed the parent stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(3)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		if c < trials/n*8/10 || c > trials/n*12/10 {
			t.Fatalf("bucket %d has %d of %d draws; far from uniform", i, c, trials)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(4)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGWeightedIndex(t *testing.T) {
	r := NewRNG(5)
	w := []float64{0, 1, 0, 3}
	counts := make([]int, len(w))
	for i := 0; i < 40000; i++ {
		counts[r.WeightedIndex(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight indexes drawn: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio = %.2f, want ≈3", ratio)
	}
	// All-zero weights fall back to uniform.
	z := r.WeightedIndex([]float64{0, 0})
	if z != 0 && z != 1 {
		t.Fatalf("fallback index out of range: %d", z)
	}
}

func TestRNGDurationBetween(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 1000; i++ {
		d := r.DurationBetween(100, 200)
		if d < 100 || d > 200 {
			t.Fatalf("duration %v out of [100, 200]", d)
		}
	}
	if d := r.DurationBetween(50, 50); d != 50 {
		t.Fatalf("degenerate range: %v", d)
	}
}

func TestSchedulerProcessedCounts(t *testing.T) {
	s := NewScheduler()
	if s.Processed() != 0 {
		t.Fatalf("fresh scheduler Processed = %d", s.Processed())
	}
	s.At(10, EventFunc(func(sc *Scheduler) { sc.After(5, EventFunc(func(*Scheduler) {})) }))
	s.At(20, EventFunc(func(*Scheduler) {}))
	s.At(90, EventFunc(func(*Scheduler) {})) // past deadline: never fires
	s.Run(50)
	if got := s.Processed(); got != 3 {
		t.Fatalf("Processed = %d, want 3 (incl. the rescheduled one, excl. past-deadline)", got)
	}
	// A second Run continues the count rather than resetting it.
	s.At(60, EventFunc(func(*Scheduler) {}))
	s.Run(0)
	if got := s.Processed(); got != 5 {
		t.Fatalf("Processed after second Run = %d, want 5", got)
	}
}

// refEvent is one event of the reference scheduler below.
type refEvent struct {
	at  Duration
	seq uint64
	id  int
}

// refHeap is a container/heap over refEvents: the reference the typed event
// heap is checked against.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// script decides what each event does when it fires, from its id alone, so
// two schedulers that fire the same sequence make the same calls. Fired
// events may schedule children (some in the past, clamped to now; many at
// one instant), and the event numbered halt calls Halt.
type script struct {
	seed  int64
	next  int // id of the next scheduled event
	limit int // no children once next reaches it
	halt  int
	fired []int
}

// fire records id and reports the children it schedules and whether it
// halts the run.
func (sc *script) fire(id int, schedule func(d Duration, id int)) (halt bool) {
	sc.fired = append(sc.fired, id)
	rng := NewRNG(sc.seed*1000003 + int64(id))
	for k := rng.Intn(3); k > 0 && sc.next < sc.limit; k-- {
		sc.next++
		schedule(Duration(rng.Intn(5)-1), sc.next)
	}
	return id == sc.halt
}

// scriptEvent is a script event on the Scheduler under test.
type scriptEvent struct {
	sc *script
	id int
}

func (e *scriptEvent) Fire(s *Scheduler) {
	if e.sc.fire(e.id, func(d Duration, id int) { s.After(d, &scriptEvent{e.sc, id}) }) {
		s.Halt()
	}
}

// TestSchedulerMatchesContainerHeap is the order oracle of the typed event
// heap: over random due times with many ties, events that schedule events
// (into the past, too) and a Halt mid-run, the scheduler fires exactly the
// sequence a container/heap reference fires, stops at the same time and
// leaves the same number of events pending.
func TestSchedulerMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		initial := 1 + rng.Intn(60)
		halt := -1
		if rng.Bool(0.5) {
			halt = rng.Intn(400)
		}
		deadline := Duration(0)
		if rng.Bool(0.3) {
			deadline = Duration(5 + rng.Intn(40))
		}
		due := make([]Duration, initial)
		for i := range due {
			due[i] = Duration(rng.Intn(12))
		}

		got := &script{seed: seed, next: initial - 1, limit: 400, halt: halt}
		s := NewScheduler()
		for i, at := range due {
			s.At(at, &scriptEvent{got, i})
		}
		end := s.Run(deadline)

		want := &script{seed: seed, next: initial - 1, limit: 400, halt: halt}
		var (
			h      refHeap
			now    Duration
			seq    uint64
			halted bool
		)
		at := func(t Duration, id int) {
			if t < now {
				t = now
			}
			seq++
			heap.Push(&h, refEvent{at: t, seq: seq, id: id})
		}
		for i, t := range due {
			at(t, i)
		}
		for h.Len() > 0 && !halted {
			if deadline != 0 && h[0].at > deadline {
				now = deadline
				break
			}
			ev := heap.Pop(&h).(refEvent)
			now = ev.at
			halted = want.fire(ev.id, func(d Duration, id int) { at(now+d, id) })
		}
		pending := h.Len()
		if halted {
			pending = 0
		}

		if !slices.Equal(got.fired, want.fired) {
			t.Fatalf("seed %d: fired %v\nreference fired %v", seed, got.fired, want.fired)
		}
		if end != now || s.Pending() != pending {
			t.Fatalf("seed %d: stopped at %v with %d pending, reference at %v with %d", seed, end, s.Pending(), now, pending)
		}
	}
}

type nopEvent struct{ n int }

func (e *nopEvent) Fire(*Scheduler) { e.n++ }

// TestSchedulerCycleDoesNotAllocate pins the typed heap's point: scheduling
// a pointer event and firing it boxes nothing.
func TestSchedulerCycleDoesNotAllocate(t *testing.T) {
	s := NewScheduler()
	ev := &nopEvent{}
	cycle := func() {
		s.After(1, ev)
		s.Run(0)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("After+fire: %v allocations per cycle, want 0", n)
	}
	if ev.n != 1002 {
		t.Fatalf("fired %d times, want 1002", ev.n)
	}
}

// TestRNGPermIntoMatchesPerm checks that PermInto makes Perm's draws and
// ignores what the buffer held before.
func TestRNGPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	buf := make([]int, 0, 32)
	for n := 0; n < 32; n++ {
		want := a.Perm(n)
		buf = buf[:n]
		for i := range buf {
			buf[i] = -7 * i
		}
		if got := b.PermInto(buf); !slices.Equal(got, want) {
			t.Fatalf("n=%d: PermInto %v, Perm %v", n, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("PermInto and Perm left the streams at different points")
	}
}
