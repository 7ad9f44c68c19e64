package pipeline

import (
	"sync/atomic"

	"rarpred/internal/check"
)

// Self-checking for the timing model (rarsim -check): a sampled sweep of
// the dataflow-timing state machine's invariants, plus per-event
// assertions compiled in under -tags rarcheck. Checks only read state,
// so enabling them cannot change a run's cycle counts.

// selfCheckAll is the package-wide runtime gate, set once by rarsim
// -check before any simulation is constructed.
var selfCheckAll atomic.Bool

// SetSelfCheck toggles self-checking for simulations constructed after
// the call.
func SetSelfCheck(on bool) { selfCheckAll.Store(on) }

// SelfCheckEnabled reports the package-wide self-check gate.
func SelfCheckEnabled() bool { return selfCheckAll.Load() }

// sweepInterval is how many timed instructions separate invariant
// sweeps.
const sweepInterval = 1 << 12

// checkInvariants sweeps the timing state:
//
//   - register timestamps: verify >= ready for every architectural
//     register (a value cannot be verified before it exists);
//   - the commit ring (the window occupancy model): every recorded
//     commit time is <= lastCommit, and commit order is what frees the
//     WindowSize-bounded entries;
//   - the store scheduler: at most LSQSize records, each with data no
//     earlier than its address and a sequence number from the past, and
//     under NoSpec the window max of their address-ready times;
//   - the SRT: no live synonym entry owned by an instruction that has
//     not been processed yet;
//   - the functional oracle's execution profile tallies.
func (s *Sim) checkInvariants() {
	for r := range s.regs {
		if s.regs[r].verify < s.regs[r].ready {
			check.Failf("pipeline.regs", "r%d: verify %d precedes ready %d",
				r, s.regs[r].verify, s.regs[r].ready)
		}
	}
	for i, ct := range s.commitRing {
		if ct > s.lastCommit {
			check.Failf("pipeline.window", "commit ring slot %d holds %d past lastCommit %d",
				i, ct, s.lastCommit)
		}
	}
	if len(s.stores) > s.cfg.LSQSize {
		check.Failf("pipeline.lsq", "%d store records exceed LSQSize %d", len(s.stores), s.cfg.LSQSize)
	}
	for i := range s.stores {
		st := &s.stores[i]
		if st.dataReady < st.addrReady {
			check.Failf("pipeline.lsq", "store %#x: data ready %d precedes address ready %d",
				st.pc, st.dataReady, st.addrReady)
		}
		if st.seq >= s.seq {
			check.Failf("pipeline.lsq", "store %#x: sequence %d not in the past (seq %d)",
				st.pc, st.seq, s.seq)
		}
	}
	if int(s.seq)%s.cfg.WindowSize != s.winIdx {
		check.Failf("pipeline.window", "maintained window index %d != seq %d mod %d",
			s.winIdx, s.seq, s.cfg.WindowSize)
	}
	if int(s.memOps)%s.cfg.LSQSize != s.lsqIdx {
		check.Failf("pipeline.lsq", "maintained LSQ index %d != memOps %d mod %d",
			s.lsqIdx, s.memOps, s.cfg.LSQSize)
	}
	s.checkStoreWindow()
	if s.srt != nil {
		s.srt.CheckInvariants(s.seq)
	}
	s.execCounts().CheckInvariants()
}

// checkStoreWindow recomputes, under NoSpec, the sliding-window max of
// store address-ready times from the ring and compares it with the
// incrementally maintained deque. The machine sweeps its own address
// filter (machine.checkStoreFilter).
func (s *Sim) checkStoreWindow() {
	if s.amax == nil {
		return
	}
	var want uint64
	for i := range s.stores {
		want = max(want, s.stores[i].addrReady)
	}
	if got := s.maxStoreAddrReady(); got != want {
		check.Failf("pipeline.lsq", "window max addrReady %d, ring says %d", got, want)
	}
}
