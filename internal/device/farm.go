package device

import (
	"errors"
	"fmt"
	"sort"

	"taopt/internal/app"
	"taopt/internal/sim"
)

// Sentinel errors for lease management. ErrFarmBusy is retryable — the
// coordinator's backoff tests for it with errors.Is; the other two indicate
// a lease-accounting bug or a stale ID and are surfaced, not retried.
var (
	// ErrFarmBusy means every device slot is currently allocated.
	ErrFarmBusy = errors.New("device: all devices busy")
	// ErrUnknownInstance means the ID was never allocated by this farm.
	ErrUnknownInstance = errors.New("device: unknown instance")
	// ErrDoubleRelease means the instance was already released or failed.
	ErrDoubleRelease = errors.New("device: instance already released")
)

// Farm manages a pool of emulator slots for one app, mirroring a testing
// cloud: the coordinator allocates and de-allocates testing instances, and
// the farm accounts the machine time each allocation consumed. Its
// emulators share one screen cache; a farm and its emulators belong to one
// run, which is one goroutine, so the cache needs no lock.
type Farm struct {
	app        *app.App
	rng        *sim.RNG
	maxDevices int
	autoLogin  bool
	screens    screenCache

	nextID    int
	active    map[int]*Allocation
	retired   []*Allocation
	meterUsed sim.Duration
	failed    int
}

// Allocation is one testing-instance lease.
type Allocation struct {
	Emu   *Emulator
	Since sim.Duration
	Until sim.Duration // valid once released
	// Failed marks a lease terminated by an instance fault rather than a
	// deliberate release; the lease is still charged up to the failure.
	Failed bool
	done   bool
}

// Done reports whether this lease has ended (released or failed).
func (al *Allocation) Done() bool { return al.done }

// MachineTime returns the machine time this allocation has consumed by now.
func (al *Allocation) MachineTime(now sim.Duration) sim.Duration {
	if al.done {
		return al.Until - al.Since
	}
	return now - al.Since
}

// NewFarm returns a farm for a with at most maxDevices concurrent instances.
// If autoLogin is set, each freshly allocated instance runs the app's
// auto-login script before testing starts (as in the paper's setup).
func NewFarm(a *app.App, rng *sim.RNG, maxDevices int, autoLogin bool) *Farm {
	if maxDevices <= 0 {
		panic("device: farm needs at least one device")
	}
	return &Farm{
		app:        a,
		rng:        rng,
		maxDevices: maxDevices,
		autoLogin:  autoLogin,
		screens:    newScreenCache(a),
		active:     make(map[int]*Allocation),
	}
}

// ActiveCount returns the number of currently allocated instances.
func (f *Farm) ActiveCount() int { return len(f.active) }

// MaxDevices returns the concurrency cap.
func (f *Farm) MaxDevices() int { return f.maxDevices }

// FailedCount returns how many leases ended in an instance fault.
func (f *Farm) FailedCount() int { return f.failed }

// Allocate boots a new testing instance at virtual time now. When all
// devices are busy it returns an error wrapping ErrFarmBusy, which callers
// should treat as retryable.
func (f *Farm) Allocate(now sim.Duration) (*Allocation, error) {
	if len(f.active) >= f.maxDevices {
		return nil, fmt.Errorf("%w (%d devices)", ErrFarmBusy, f.maxDevices)
	}
	id := f.nextID
	f.nextID++
	emu := newEmulator(id, f.app, f.rng.Fork(int64(id)), f.screens)
	if f.autoLogin {
		emu.AutoLogin()
	}
	al := &Allocation{Emu: emu, Since: now}
	f.active[id] = al
	return al, nil
}

// Release de-allocates the instance with the given ID at virtual time now,
// charging its machine time. Releasing an already-released instance returns
// an error wrapping ErrDoubleRelease; an ID this farm never allocated
// returns one wrapping ErrUnknownInstance. Both are surfaced to the
// coordinator instead of panicking so a single bad lease cannot take down a
// whole campaign.
func (f *Farm) Release(id int, now sim.Duration) (*Allocation, error) {
	return f.retire(id, now, false)
}

// Fail terminates the lease of a dead or hung instance at virtual time now.
// The lease is charged machine time up to the failure, exactly as a release,
// but is marked failed for reporting.
func (f *Farm) Fail(id int, now sim.Duration) (*Allocation, error) {
	return f.retire(id, now, true)
}

func (f *Farm) retire(id int, now sim.Duration, failed bool) (*Allocation, error) {
	al, ok := f.active[id]
	if !ok {
		if id >= 0 && id < f.nextID {
			return nil, fmt.Errorf("%w: instance %d", ErrDoubleRelease, id)
		}
		return nil, fmt.Errorf("%w: instance %d", ErrUnknownInstance, id)
	}
	delete(f.active, id)
	al.Until = now
	al.done = true
	al.Failed = failed
	if failed {
		f.failed++
	}
	f.retired = append(f.retired, al)
	f.meterUsed += al.Until - al.Since
	return al, nil
}

// ReleaseAll de-allocates every active instance.
func (f *Farm) ReleaseAll(now sim.Duration) {
	ids := make([]int, 0, len(f.active))
	for id := range f.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f.Release(id, now)
	}
}

// Active returns the active allocations sorted by instance ID.
func (f *Farm) Active() []*Allocation {
	out := make([]*Allocation, 0, len(f.active))
	for _, al := range f.active {
		out = append(out, al)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Emu.ID < out[j].Emu.ID })
	return out
}

// All returns every allocation ever made, retired first, sorted by ID.
func (f *Farm) All() []*Allocation {
	out := append([]*Allocation(nil), f.retired...)
	out = append(out, f.Active()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Emu.ID < out[j].Emu.ID })
	return out
}

// MachineTime returns total machine time consumed by all allocations by now.
func (f *Farm) MachineTime(now sim.Duration) sim.Duration {
	total := f.meterUsed
	for _, al := range f.active {
		total += now - al.Since
	}
	return total
}
