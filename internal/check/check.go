// Package check is the simulator's invariant and oracle layer.
//
// It deliberately has two independent switches with different costs:
//
//   - check.Enabled is a compile-time constant controlled by the
//     `rarcheck` build tag. Per-event assertions on simulator hot paths
//     are written as `if check.Enabled { ... }`; with the tag absent the
//     constant is false and the compiler deletes the whole block, so the
//     default build pays nothing — not even a branch.
//
//   - Runtime self-checking (package-level SetSelfCheck toggles in
//     cloak/pipeline/trace plus experiments.Options.Check, all driven by
//     the rarsim -check flag) enables the coarse machinery that is too
//     expensive to leave keyed off a constant: reference-model
//     differential oracles, sampled structure sweeps, and replay-vs-live
//     stream comparison. These run on any build, including the default
//     one.
//
// A failed check panics with *Violation. Inside the experiment harness
// that panic is caught by the per-job recover and classified as
// runerr.ErrWorkloadPanic, so one violated invariant fails the cells
// that violated it, and with them their experiments: rarsim reports it
// like any other failed cell and ends the sweep.
package check

import "fmt"

// Violation is the panic payload raised by a failed invariant or oracle
// comparison. Site names the structure and invariant ("ddt.lru",
// "cache.bytes", "oracle.stream"), Msg carries the observed vs expected
// detail.
type Violation struct {
	Site string
	Msg  string
}

func (v *Violation) Error() string { return "check: " + v.Site + ": " + v.Msg }

// Failf raises a *Violation panic for site.
func Failf(site, format string, args ...any) {
	panic(&Violation{Site: site, Msg: fmt.Sprintf(format, args...)})
}

// Assertf raises a *Violation unless cond holds.
func Assertf(cond bool, site, format string, args ...any) {
	if !cond {
		Failf(site, format, args...)
	}
}

// Catch runs f and returns the *Violation it panicked with, or nil if f
// returned normally. Any other panic value is re-raised. It exists for
// regression tests that want to assert a specific invariant fires.
func Catch(f func()) (v *Violation) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if v, ok = r.(*Violation); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

// Sampler decides when to run a sweep that is too expensive for every
// event. Interval must be a power of two so Tick stays a mask test.
type Sampler struct {
	mask uint64
	n    uint64
}

// NewSampler returns a sampler firing once every interval Ticks
// (interval must be a positive power of two).
func NewSampler(interval uint64) Sampler {
	if interval == 0 || interval&(interval-1) != 0 {
		Failf("sampler", "interval %d is not a positive power of two", interval)
	}
	return Sampler{mask: interval - 1}
}

// Tick advances the sampler and reports whether this event is sampled.
// The zero Sampler samples every event.
func (s *Sampler) Tick() bool {
	s.n++
	return s.n&s.mask == 0
}
