// Package faultsim deterministically injects faults — panics, stalls,
// and stream corruption — into chosen workloads, so the resilience of
// the experiment harness can be proven by test instead of asserted. It
// is the harness's analog of the paper's misspeculation drills: cloaking
// always verifies speculative values and squashes cleanly, and the
// harness must likewise survive any single workload going wrong.
//
// Faults are registered per workload name in a process-wide table.
// Production runs pay one atomic load per poll site while the table is
// empty; tests Inject what they need and Reset when done. A fault fires
// at poll granularity: the funcsim interpreter polls its interrupt hook
// every funcsim.InterruptEvery committed instructions, so After counts
// those polls, making trigger points reproducible run to run.
package faultsim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable failure modes.
type Kind uint8

const (
	// Panic makes the workload's interpreter hook panic — exercising the
	// jobs' panic isolation and the failed-recording paths.
	Panic Kind = iota + 1
	// Stall blocks the workload's interpreter hook until its context is
	// canceled (then returns the context error) — exercising the run
	// deadline (-timeout) and cancellation paths without leaking a
	// goroutine.
	Stall
	// Corrupt flags the workload's next recorded stream for corruption —
	// exercising Stream.Validate and the live re-record degradation
	// path. The caller applies the corruption (see
	// ShouldCorrupt); this package stays dependency-free.
	Corrupt
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault describes one injected failure.
type Fault struct {
	Kind Kind
	// After is how many interrupt polls pass before the fault triggers
	// (0 = the first poll). Only Panic and Stall poll.
	After int
	// Times bounds how many triggers the fault delivers before it
	// disarms (0 = every time). Times=1 makes a "transient" fault: the
	// first recording fails, a retry succeeds.
	Times int
}

// armed is a registered fault plus its firing state.
type armed struct {
	f     Fault
	polls int
	fired int
}

var (
	mu     sync.Mutex
	faults map[string]*armed

	// active mirrors len(faults) != 0 so poll sites skip the lock when
	// nothing is injected.
	active atomic.Bool
)

// Inject arms f for the named workload, replacing any previous fault.
func Inject(workload string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if faults == nil {
		faults = make(map[string]*armed)
	}
	faults[workload] = &armed{f: f}
	active.Store(true)
}

// Reset disarms every fault, including disk faults. Tests defer it.
func Reset() {
	mu.Lock()
	faults = nil
	active.Store(false)
	mu.Unlock()
	ResetDisk()
}

// Enabled reports whether any fault is armed (one atomic load).
func Enabled() bool { return active.Load() }

// take consumes one trigger of workload's fault of kind k, honouring
// After (for polled kinds) and Times. It returns whether the fault fires
// now.
func take(workload string, k Kind, countPoll bool) bool {
	if !active.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	a, ok := faults[workload]
	if !ok || a.f.Kind != k {
		return false
	}
	if a.f.Times > 0 && a.fired >= a.f.Times {
		return false
	}
	if countPoll {
		a.polls++
		if a.polls <= a.f.After {
			return false
		}
	}
	a.fired++
	return true
}

// Hook returns an interrupt hook delivering the workload's armed Panic
// or Stall fault, or nil when none is armed. The hook is handed to the
// funcsim interpreter (via trace.RecordStreamContext), which polls it
// every funcsim.InterruptEvery committed instructions. A Stall blocks
// until ctx is done and then returns the context error, so a "hung"
// workload ends with the run instead of leaking its goroutine.
func Hook(workload string, ctx context.Context) func() error {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	a, ok := faults[workload]
	mu.Unlock()
	if !ok || (a.f.Kind != Panic && a.f.Kind != Stall) {
		return nil
	}
	kind := a.f.Kind
	return func() error {
		if !take(workload, kind, true) {
			return nil
		}
		switch kind {
		case Panic:
			panic(fmt.Sprintf("faultsim: injected panic in %s", workload))
		case Stall:
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
}

// ShouldCorrupt consumes one trigger of the workload's Corrupt fault.
// The caller (the trace-recording layer) mangles the freshly recorded
// stream when it returns true.
func ShouldCorrupt(workload string) bool {
	return take(workload, Corrupt, false)
}

// DiskKind enumerates the injectable filesystem failure modes. They
// model the ways long simulation campaigns actually lose artifacts: a
// process killed mid-write (torn write), media or transport corruption
// (bit flip), a file chopped by a crashing filesystem (truncation), a
// full disk (ENOSPC), and a device that is merely slow to persist
// (slow fsync).
type DiskKind uint8

const (
	// DiskTornWrite makes a write persist only a prefix of its bytes
	// while still reporting success — the classic crash-mid-write shape
	// that only a checksum can catch at read time.
	DiskTornWrite DiskKind = iota + 1
	// DiskBitFlip flips one bit in the middle of the written payload,
	// again reporting success.
	DiskBitFlip
	// DiskTruncate drops the tail of the written payload (more than a
	// torn write — down to the first quarter), reporting success.
	DiskTruncate
	// DiskENOSPC fails the write outright with an out-of-space error —
	// the transient shape the store's bounded retry exists for.
	DiskENOSPC
	// DiskSlowSync delays Sync by the fault's Delay without corrupting
	// anything, modelling a device that is slow to make data durable.
	DiskSlowSync
)

// String names the disk fault kind for error messages.
func (k DiskKind) String() string {
	switch k {
	case DiskTornWrite:
		return "torn write"
	case DiskBitFlip:
		return "bit flip"
	case DiskTruncate:
		return "truncation"
	case DiskENOSPC:
		return "enospc"
	case DiskSlowSync:
		return "slow fsync"
	}
	return fmt.Sprintf("DiskKind(%d)", uint8(k))
}

// DiskFault describes one injected filesystem failure, armed against
// every store file whose path contains the registered pattern.
type DiskFault struct {
	Kind DiskKind
	// Times bounds how many operations the fault corrupts or fails
	// before it disarms (0 = every matching operation). Times=1 makes a
	// transient fault: the first attempt fails, the store's retry
	// succeeds.
	Times int
	// Delay is how long DiskSlowSync stalls each Sync.
	Delay time.Duration
}

// armedDisk is a registered disk fault plus its firing state.
type armedDisk struct {
	f     DiskFault
	fired int
}

var (
	diskMu     sync.Mutex
	diskFaults map[string]*armedDisk

	// diskActive mirrors len(diskFaults) != 0 so the store's filesystem
	// seam pays one atomic load per operation while nothing is injected.
	diskActive atomic.Bool
)

// InjectDisk arms f for every store path containing pattern, replacing
// any previous fault registered under the same pattern. The store's
// artifact filenames embed the workload name, so a workload name is the
// usual pattern; "journal" matches the suite run journal.
func InjectDisk(pattern string, f DiskFault) {
	diskMu.Lock()
	defer diskMu.Unlock()
	if diskFaults == nil {
		diskFaults = make(map[string]*armedDisk)
	}
	diskFaults[pattern] = &armedDisk{f: f}
	diskActive.Store(true)
}

// ResetDisk disarms every disk fault. Tests defer it (Reset calls it
// too, so one deferred Reset covers both tables).
func ResetDisk() {
	diskMu.Lock()
	defer diskMu.Unlock()
	diskFaults = nil
	diskActive.Store(false)
}

// TakeDisk consumes one trigger of the fault matching path, honouring
// Times. It returns the fault and whether one fires for this operation;
// the caller (the store's fault-injecting filesystem) applies the
// corruption or failure. Write-shaped kinds fire on writes, DiskSlowSync
// on syncs; the caller passes which operation it is about to perform.
func TakeDisk(path string, sync bool) (DiskFault, bool) {
	if !diskActive.Load() {
		return DiskFault{}, false
	}
	diskMu.Lock()
	defer diskMu.Unlock()
	for pattern, a := range diskFaults {
		if !strings.Contains(path, pattern) {
			continue
		}
		if sync != (a.f.Kind == DiskSlowSync) {
			continue
		}
		if a.f.Times > 0 && a.fired >= a.f.Times {
			continue
		}
		a.fired++
		return a.f, true
	}
	return DiskFault{}, false
}
