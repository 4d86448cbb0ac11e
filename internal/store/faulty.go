package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// This file is the I/O fault-injection seam of the store: a seedable
// Injector deciding which file operations fail, consulted by Dir at its
// write/sync/rename sites (OpenDirFaulty). It is the only seam: a fault
// fails a real file operation, so every test sees what that failure
// leaves on disk — a torn or unacknowledged WAL tail, a stray temp
// file — and drives the atomic rotation, the tail repair and
// Persistent's degradation ladder against it. Production pays nothing:
// a nil Injector compiles to the direct calls.

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
