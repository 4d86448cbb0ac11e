package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"rtcshare/internal/core"
)

// This file is the I/O fault-injection seam of the store: a seedable
// Injector deciding which file operations fail, consulted by Dir at its
// write/sync/rename sites (OpenDirFaulty) and by the Faulty Store
// wrapper at the interface boundary. Both levels exist on purpose — the
// wrapper exercises Persistent's degradation ladder without a real
// filesystem in the loop, while the Dir hooks exercise the atomic
// rotation and WAL tail-repair machinery against real files. Production
// builds pay nothing: a nil Injector compiles to the direct calls.

// ErrInjected marks a failure manufactured by an Injector. Tests match
// on it with errors.Is to tell injected faults from real ones.
var ErrInjected = errors.New("store: injected fault")

// FaultOp identifies one class of file operation an Injector can fail.
type FaultOp int

const (
	// OpWrite is a data write (WAL record, snapshot temp file, probe).
	OpWrite FaultOp = iota
	// OpSync is an fsync of a file or directory.
	OpSync
	// OpRename is the atomic-replace rename of a snapshot or log
	// rotation.
	OpRename
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// Injector decides, deterministically from a seed, which file
// operations fail. It is safe for concurrent use; every decision
// consumes PRNG state under the lock, so a fixed seed and a fixed
// operation sequence reproduce the same fault pattern.
type Injector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	prob      float64
	armed     [numFaultOps]bool
	nth       [numFaultOps]int // countdown; fires when it reaches 0
	nthSet    [numFaultOps]bool
	shortWr   bool
	injected  int
	perOpHits [numFaultOps]int
}

// NewInjector returns an injector with no faults armed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm makes each listed operation fail independently with probability
// prob; no ops means all ops. Arm replaces any previous probabilistic
// arming (FailNth countdowns are independent and survive).
func (i *Injector) Arm(prob float64, ops ...FaultOp) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.prob = prob
	i.armed = [numFaultOps]bool{}
	if len(ops) == 0 {
		for op := range i.armed {
			i.armed[op] = true
		}
		return
	}
	for _, op := range ops {
		i.armed[op] = true
	}
}

// Disarm clears all probabilistic and countdown faults.
func (i *Injector) Disarm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.prob = 0
	i.armed = [numFaultOps]bool{}
	i.nth = [numFaultOps]int{}
	i.nthSet = [numFaultOps]bool{}
}

// FailNth makes the n-th next operation of the given kind fail (n = 1
// fails the very next one). It composes with Arm.
func (i *Injector) FailNth(op FaultOp, n int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.nth[op] = n
	i.nthSet[op] = true
}

// ShortWrites makes injected write failures tear: the first half of the
// buffer lands before the error, modelling a crash or ENOSPC mid-write
// instead of a clean rejection.
func (i *Injector) ShortWrites(on bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.shortWr = on
}

// Injected returns how many faults have fired so far.
func (i *Injector) Injected() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// InjectedFor returns how many faults have fired for one operation kind.
func (i *Injector) InjectedFor(op FaultOp) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.perOpHits[op]
}

// should decides whether the next operation of this kind fails, and
// whether the failure tears (short write).
func (i *Injector) should(op FaultOp) (fail, short bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.nthSet[op] {
		i.nth[op]--
		if i.nth[op] <= 0 {
			i.nthSet[op] = false
			i.injected++
			i.perOpHits[op]++
			return true, i.shortWr
		}
	}
	if i.armed[op] && i.prob > 0 && i.rng.Float64() < i.prob {
		i.injected++
		i.perOpHits[op]++
		return true, i.shortWr
	}
	return false, false
}

// Faulty wraps a Store so mutating operations fail according to an
// Injector — the interface-level counterpart of OpenDirFaulty, placed
// beneath Persistent to drive its degradation ladder in tests and the
// chaos benchmark. Read paths (LoadSnapshot, ReplayBatches, Stats) pass
// through untouched: the ladder is about losing the ability to commit,
// not the ability to serve.
type Faulty struct {
	inner Store
	inj   *Injector
}

// NewFaulty wraps inner so its mutating operations consult inj.
func NewFaulty(inner Store, inj *Injector) *Faulty {
	return &Faulty{inner: inner, inj: inj}
}

// Injector returns the wrapper's injector.
func (f *Faulty) Injector() *Injector { return f.inj }

// fail consults the injector for each listed op, returning the first
// injected failure.
func (f *Faulty) fail(ops ...FaultOp) error {
	for _, op := range ops {
		if hit, _ := f.inj.should(op); hit {
			return fmt.Errorf("store: %s: %w", op, ErrInjected)
		}
	}
	return nil
}

// LoadSnapshot implements Store (never injected).
func (f *Faulty) LoadSnapshot() (*core.SnapshotState, error) { return f.inner.LoadSnapshot() }

// WriteSnapshot implements Store: a snapshot commit performs writes,
// syncs and renames, so any armed fault can fail it.
func (f *Faulty) WriteSnapshot(st *core.SnapshotState) error {
	if err := f.fail(OpWrite, OpSync, OpRename); err != nil {
		return err
	}
	return f.inner.WriteSnapshot(st)
}

// AppendBatch implements Store: a WAL append is a write plus a sync.
func (f *Faulty) AppendBatch(epoch uint64, updates []core.GraphUpdate) error {
	if err := f.fail(OpWrite, OpSync); err != nil {
		return err
	}
	return f.inner.AppendBatch(epoch, updates)
}

// ReplayBatches implements Store (never injected).
func (f *Faulty) ReplayBatches(afterEpoch uint64, fn func(LoggedBatch) error) error {
	return f.inner.ReplayBatches(afterEpoch, fn)
}

// Probe implements Store: it fails while faults are armed — the
// degradation ladder must not re-arm updates before the medium
// recovers — and delegates to the inner probe once they clear.
func (f *Faulty) Probe() error {
	if err := f.fail(OpWrite, OpSync, OpRename); err != nil {
		return err
	}
	return f.inner.Probe()
}

// Stats implements Store.
func (f *Faulty) Stats() Stats { return f.inner.Stats() }

// Close implements Store.
func (f *Faulty) Close() error { return f.inner.Close() }
