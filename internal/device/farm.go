package device

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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
	screens    screenCache

	// all holds every allocation ever made, indexed by instance ID: IDs are
	// handed out consecutively from 0.
	all []*Allocation
	// active holds the live allocations in ascending ID order: IDs only
	// grow, so Allocate appends and retire deletes in place.
	active    []*Allocation
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

// NewFarm returns a farm for a with at most maxDevices concurrent instances.
// Each freshly allocated instance runs the app's auto-login script before
// testing starts (as in the paper's setup).
func NewFarm(a *app.App, rng *sim.RNG, maxDevices int) *Farm {
	if maxDevices <= 0 {
		panic("device: farm needs at least one device")
	}
	return &Farm{
		app:        a,
		rng:        rng,
		maxDevices: maxDevices,
		screens:    newScreenCache(a),
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
	id := len(f.all)
	emu := newEmulator(id, f.app, f.rng.Fork(int64(id)), f.screens)
	emu.AutoLogin()
	al := &Allocation{Emu: emu, Since: now}
	f.all = append(f.all, al)
	f.active = append(f.active, al)
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
	if id < 0 || id >= len(f.all) {
		return nil, fmt.Errorf("%w: instance %d", ErrUnknownInstance, id)
	}
	al := f.all[id]
	if al.done {
		return nil, fmt.Errorf("%w: instance %d", ErrDoubleRelease, id)
	}
	i, _ := slices.BinarySearchFunc(f.active, id, func(al *Allocation, id int) int { return cmp.Compare(al.Emu.ID, id) })
	f.active = slices.Delete(f.active, i, i+1)
	al.Until = now
	al.done = true
	al.Failed = failed
	if failed {
		f.failed++
	}
	f.meterUsed += al.Until - al.Since
	return al, nil
}

// ReleaseAll de-allocates every active instance.
func (f *Farm) ReleaseAll(now sim.Duration) {
	for _, id := range f.ActiveIDs() {
		f.Release(id, now)
	}
}

// ActiveIDs returns the IDs of the active instances in ascending order, in
// a fresh slice.
func (f *Farm) ActiveIDs() []int {
	out := make([]int, len(f.active))
	for i, al := range f.active {
		out[i] = al.Emu.ID
	}
	return out
}

// All returns every allocation ever made, sorted by ID.
func (f *Farm) All() []*Allocation { return slices.Clone(f.all) }

// MachineTime returns total machine time consumed by all allocations by now.
func (f *Farm) MachineTime(now sim.Duration) sim.Duration {
	total := f.meterUsed
	for _, al := range f.active {
		total += now - al.Since
	}
	return total
}
