package pipeline

import (
	"rarpred/internal/bpred"
	"rarpred/internal/cache"
	"rarpred/internal/check"
	"rarpred/internal/isa"
)

// outcome is what the machine found for one committed instruction: all
// a Sim reads of the caches, the branch predictor, the store-address
// search and the sampling schedule. A latency fits a byte: the
// hierarchy's slowest access, a miss to memory, takes 63 cycles.
type outcome struct {
	// fetchLat is the L1I latency of the fetch block the instruction
	// starts, or 0 when it stays in the previous instruction's block.
	fetchLat uint8
	// dataLat is the L1D latency of a load's or store's access, or 0
	// when there is none: a timing-phase load with an in-flight store to
	// its address forwards or squashes instead.
	dataLat uint8
	flags   uint8 // outTimed, outResume, outMispredict
	// conflict is, for a timing-phase load, the store-ring slot of its
	// latest earlier in-flight store to the same address, or -1.
	conflict int32
}

const (
	// outTimed: the instruction is in a timing phase (always, unless
	// sampling).
	outTimed uint8 = 1 << iota
	// outResume: the instruction opens a timing phase after a
	// functional one.
	outResume
	// outMispredict: a conditional branch, return or other indirect jump
	// whose prediction was wrong.
	outMispredict
)

// l1HitLatency is the L1I and L1D hit latency of cache.NewHierarchy: an
// access that took longer missed.
const l1HitLatency = 2

// machine is the state of a timing run that follows the committed
// stream in program order alone, whatever the timing: the cache
// hierarchy, the branch predictor, the fetch-block tracker, the sampling
// schedule and the in-flight store addresses. It is shared by every Sim
// of a walk, and each Sim reads its outcomes (DESIGN.md §7 gives why
// each part depends only on program order).
type machine struct {
	mem *cache.Hierarchy
	bp  *bpred.Predictor

	lastFetchBlock uint32

	// The sampling schedule (Config.SampleRatio): timing holds for the
	// current phase, which has phaseLeft instructions left.
	sampleRatio uint64
	obs         uint64
	timing      bool
	phaseLeft   uint64

	// stores is a ring of the addresses of the last LSQSize timing-phase
	// stores, the ones a Sim's load/store scheduler still holds; a Sim
	// keeps the timing of each in the same slot.
	stores    []uint32
	storeHead int
	// tags is a counting address filter over the store ring: a load whose
	// address hashes to an empty bucket provably has no in-flight
	// conflicting store, skipping the ring scan entirely.
	tags [numTags]uint16

	sc     bool
	scSamp check.Sampler
}

// numTags is the size of the store-address filter; buckets index by
// word-address low bits, so the filter is exact for working sets under
// 8 KiB and merely conservative (never wrong) beyond.
const numTags = 2048

func tagIdx(addr uint32) uint32 { return (addr >> 2) & (numTags - 1) }

// newMachine returns the machine of Sims configured as cfg, which reads
// only cfg's LSQSize, SampleRatio and ObservationSize; sc arms its
// sampled self-check sweep.
func newMachine(cfg Config, sc bool) *machine {
	m := &machine{
		mem:            cache.NewHierarchy(),
		bp:             bpred.New(bpred.DefaultConfig()),
		lastFetchBlock: ^uint32(0),
		sampleRatio:    uint64(cfg.SampleRatio),
		obs:            cfg.ObservationSize,
		timing:         true,
		stores:         make([]uint32, 0, cfg.LSQSize),
		sc:             sc,
	}
	if m.obs == 0 {
		m.obs = 50_000
	}
	if m.sampleRatio > 0 {
		m.phaseLeft = m.obs
	}
	if sc {
		m.scSamp = check.NewSampler(sweepInterval)
	}
	return m
}

// next runs one committed instruction through the machine and returns
// its outcome: in, fetched at pc and of timing class kind, went on to
// nextPC and, if it is a load or a store, accessed addr.
func (m *machine) next(in isa.Inst, kind uint8, pc, nextPC, addr uint32) outcome {
	o := outcome{conflict: -1}
	if m.sampleRatio > 0 {
		if m.phaseLeft == 0 {
			if m.timing {
				m.phaseLeft = m.obs * m.sampleRatio
			} else {
				m.phaseLeft = m.obs
				o.flags |= outResume
			}
			m.timing = !m.timing
		}
		m.phaseLeft--
	}
	if m.timing {
		o.flags |= outTimed
	}
	if block := pc &^ 15; block != m.lastFetchBlock {
		m.lastFetchBlock = block
		o.fetchLat = uint8(m.mem.FetchLatency(pc))
	}
	switch kind {
	case kLoad:
		if m.timing {
			if o.conflict = m.latestConflict(addr); o.conflict >= 0 {
				break
			}
		}
		o.dataLat = uint8(m.mem.LoadLatency(addr))
	case kStore:
		o.dataLat = uint8(m.mem.WriteLatency(addr))
		if m.timing {
			m.recordStore(addr)
		}
	case kBranch:
		taken := nextPC != pc+4
		predTaken := m.bp.PredictDirection(pc)
		m.bp.UpdateDirection(pc, taken, predTaken)
		if predTaken != taken {
			o.flags |= outMispredict
		}
	case kJump:
		switch in.Op {
		case isa.OpJal:
			m.bp.PushReturn(pc + 4)
		case isa.OpJalr:
			m.bp.PushReturn(pc + 4)
			m.indirect(pc, nextPC, &o)
		case isa.OpJr:
			if in.IsReturn() {
				if m.bp.PopReturn() != nextPC {
					o.flags |= outMispredict
				}
			} else {
				m.indirect(pc, nextPC, &o)
			}
		}
	}
	if m.sc && m.scSamp.Tick() {
		m.checkStoreFilter()
	}
	return o
}

// indirect predicts and trains a non-return indirect jump.
func (m *machine) indirect(pc, target uint32, o *outcome) {
	if m.bp.PredictIndirect(pc) != target {
		o.flags |= outMispredict
	}
	m.bp.UpdateIndirect(pc, target)
}

// latestConflict returns the ring slot of the latest earlier store to
// addr still in the scheduler, or -1. The counting filter answers the
// common case (no earlier store anywhere near the address) without
// touching the ring; otherwise the ring is scanned newest-first so the
// first address match is the latest by sequence, ending the scan.
func (m *machine) latestConflict(addr uint32) int32 {
	if m.tags[tagIdx(addr)] == 0 {
		return -1
	}
	n := len(m.stores)
	i := m.storeHead
	for k := 0; k < n; k++ {
		i--
		if i < 0 {
			i += n
		}
		if m.stores[i] == addr {
			return int32(i)
		}
	}
	return -1
}

// recordStore inserts a timing-phase store's address into the ring,
// evicting the oldest once the ring is full, and keeps the address
// filter in sync with the ring. Sim.recordStore fills the same slot.
func (m *machine) recordStore(addr uint32) {
	m.tags[tagIdx(addr)]++
	if len(m.stores) < cap(m.stores) {
		m.stores = append(m.stores, addr)
		return
	}
	m.tags[tagIdx(m.stores[m.storeHead])]--
	m.stores[m.storeHead] = addr
	if m.storeHead++; m.storeHead == len(m.stores) {
		m.storeHead = 0
	}
}

// checkStoreFilter recomputes the store-address filter from the ring and
// compares it with the incrementally maintained one.
func (m *machine) checkStoreFilter() {
	var tags [numTags]uint16
	for _, addr := range m.stores {
		tags[tagIdx(addr)]++
	}
	if tags != m.tags {
		check.Failf("pipeline.lsq", "store-address filter out of sync with the ring")
	}
}
