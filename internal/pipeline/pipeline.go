// Package pipeline is the cycle-level timing simulator of the paper's
// base processor (Section 5.1): an 8-wide, 128-entry-window out-of-order
// core with a 5-cycle front end, a 128-entry load/store scheduler with
// naive memory dependence speculation, the Section 5.1 functional-unit
// latencies and memory hierarchy, and the combined branch predictor —
// plus the integrated cloaking/bypassing mechanism of Section 5.6.
//
// # Model
//
// The simulator executes the program functionally in order (reusing the
// architectural simulator in internal/funcsim as the oracle) and computes
// timing with a dataflow model: every dynamic instruction receives a
// fetch slot (width-limited, redirected on mispredictions), enters the
// window when an entry frees, begins execution when its operands, an
// issue slot and (for memory operations) a scheduler port are available,
// and completes after its class latency or memory access time. Register
// values carry (ready, verify) timestamps so value-speculative chains can
// be gated exactly as Section 5.6.1 describes: speculation in a register
// dependence chain resolves as soon as its inputs resolve, and branches
// with value-speculative inputs do not resolve (and thus cannot redirect
// the front end) until their inputs verify.
//
// Value misspeculation recovery follows the paper's two models:
// selective invalidation re-executes only dependent instructions — in
// dataflow-timing terms, the mispredicted load's result simply becomes
// available at its verification time, which is the behaviour the paper
// measured as equivalent to an oracle that never speculates wrongly —
// and squash invalidation restarts fetch after the mispredicted load.
//
// # Feeds
//
// A Sim from New runs the functional interpreter as it goes. A Sim from
// NewReplay replays a recorded trace.IStream instead, and Walk times
// several such Sims in one pass over the recording. Everything that
// follows the committed stream in program order alone is computed once
// per walk, not once per Sim: the cloak engines, which train on the
// committed accesses, and the machine (the caches, the branch predictor,
// the sampling schedule and the in-flight store addresses). Each Sim
// keeps only its timing state and reads the walk's outcomes and
// decisions.
package pipeline

import (
	"fmt"

	"rarpred/internal/check"
	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/metrics"
	"rarpred/internal/trace"
)

// instsCommitted counts instructions the timing model has processed
// across every pipeline simulation in the process (timing and
// functional-sampling phases alike) — the -progress throughput source
// for the cycle-level experiments. Run flushes it in batches so the
// per-instruction loop pays one local increment.
var instsCommitted = metrics.Default().Counter("pipeline.insts_committed")

// MemSpecPolicy selects how loads are scheduled against earlier stores.
type MemSpecPolicy uint8

const (
	// NaiveSpec is the paper's baseline (Section 5.1, after [14]): a load
	// may access memory even when preceding store addresses are unknown;
	// it waits for stores *known* to conflict; stores post addresses and
	// data out of order. A later-arriving conflicting store address
	// squashes from the load.
	NaiveSpec MemSpecPolicy = iota

	// NoSpec makes loads wait until all preceding store addresses are
	// known (the Figure 10 baseline).
	NoSpec

	// StoreSets is Chrysos & Emer's store-set predictor (ISCA-25, the
	// paper's reference [5]): loads that were caught violating against a
	// store are placed in that store's set and thereafter wait for the
	// set's last store before issuing.
	StoreSets
)

// String names the policy.
func (p MemSpecPolicy) String() string {
	switch p {
	case NaiveSpec:
		return "naive"
	case NoSpec:
		return "no-speculation"
	}
	return "store-sets"
}

// RecoveryPolicy selects value-misspeculation handling (Section 5.6.2).
type RecoveryPolicy uint8

const (
	// Selective re-executes only the instructions that used a wrong
	// value.
	Selective RecoveryPolicy = iota
	// Squash invalidates everything from the mispeculated instruction
	// and re-fetches.
	Squash
	// Oracle never speculates when speculation would be wrong — the
	// comparison point the paper uses to argue selective invalidation is
	// sufficient ("selective invalidation offers performance similar to
	// such a mechanism", Section 5.6.1).
	Oracle
)

// String names the policy.
func (p RecoveryPolicy) String() string {
	switch p {
	case Selective:
		return "selective"
	case Squash:
		return "squash"
	}
	return "oracle"
}

// Config parameterises one timing run.
type Config struct {
	// Width is fetch/issue/commit width (8 in the paper).
	Width int
	// WindowSize is the instruction window / re-order buffer (128).
	WindowSize int
	// LSQSize is the load/store scheduler capacity (128).
	LSQSize int
	// MemPorts bounds loads+stores scheduled per cycle (4).
	MemPorts int
	// FrontEndDepth is fetch-to-rename latency (5).
	FrontEndDepth int

	MemSpec  MemSpecPolicy
	Recovery RecoveryPolicy

	// Cloak enables cloaking/bypassing with the given configuration; nil
	// runs the base processor.
	Cloak *cloak.Config
	// Bypassing links consumers of predicted loads directly to the
	// producer's value (Section 3.2), saving the propagation cycle.
	Bypassing bool

	// MaxInsts bounds the run (0 = run to completion).
	MaxInsts uint64

	// SampleRatio enables the paper's sampling methodology (Table 5.1's
	// "SR" column): simulate ObservationSize instructions in timing mode,
	// then SampleRatio*ObservationSize instructions functionally — during
	// which the I-cache, D-cache, branch predictors and cloaking tables
	// keep training, exactly as Section 5.1 describes — and repeat.
	// 0 disables sampling (every instruction is timed).
	SampleRatio int

	// ObservationSize is the timing-phase length when sampling (default
	// 50,000 instructions, the paper's observation size).
	ObservationSize uint64

	// Interrupt, when non-nil, is polled every funcsim.InterruptEvery
	// committed instructions — the same boundary the committed-inst
	// counter flushes on. A non-nil error aborts the run with that
	// error. The experiment layer installs cancellation checks here,
	// giving timing runs the same bounded cancellation latency as
	// functional ones. Purely a control seam: timing results are
	// identical with or without it.
	Interrupt func() error
}

// DefaultConfig is the Section 5.1 base processor.
func DefaultConfig() Config {
	return Config{
		Width:         8,
		WindowSize:    128,
		LSQSize:       128,
		MemPorts:      4,
		FrontEndDepth: 5,
		MemSpec:       NaiveSpec,
		Recovery:      Selective,
	}
}

// Result carries the timing outcome and diagnostic statistics.
type Result struct {
	Cycles uint64
	Insts  uint64

	Branches          uint64
	BranchMispredicts uint64
	MemViolations     uint64 // memory-order squashes (naive speculation)
	StoreForwards     uint64

	// Cloaking statistics (zero when Cloak == nil).
	SpecUsed    uint64 // loads that obtained a speculative value
	SpecCorrect uint64
	SpecWrong   uint64
	SpecSkipped uint64 // oracle recovery: wrong values never used
	SpecRAW     uint64 // correct values produced by stores
	SpecRAR     uint64 // correct values produced by loads

	L1DMissRate float64
	L1IMissRate float64
	BranchAcc   float64

	// TimedInsts counts instructions simulated in timing mode (equal to
	// Insts unless sampling is enabled).
	TimedInsts uint64
}

// IPC returns committed instructions per cycle over the timed phases.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TimedInsts) / float64(r.Cycles)
}

// EstimatedCycles extrapolates whole-program cycles from the timed
// samples (Cycles itself when sampling is off).
func (r Result) EstimatedCycles() uint64 {
	if r.TimedInsts == 0 || r.TimedInsts == r.Insts {
		return r.Cycles
	}
	return uint64(float64(r.Cycles) * float64(r.Insts) / float64(r.TimedInsts))
}

// slotCounter allocates per-cycle resource slots (issue width, memory
// ports) with a lazily-reset ring. The ring length must be
// a power of two so reserve's cycle-to-slot mapping is a mask, not a
// division.
type slotCounter struct {
	// slots packs each ring entry's cycle and the slots taken in it into
	// one word, cycle<<slotCountBits | count, so a probe reads one word.
	slots []uint64
	mask  uint64
	limit uint64
}

// slotCountBits is the width of a slot's count; a reserved cycle must
// stay below 2^(64-slotCountBits).
const slotCountBits = 16

func newSlotCounter(limit, ring int) *slotCounter {
	if ring&(ring-1) != 0 {
		panic("pipeline: slotCounter ring must be a power of two")
	}
	if limit >= 1<<slotCountBits {
		panic("pipeline: slotCounter limit does not fit a slot's count")
	}
	return &slotCounter{
		slots: make([]uint64, ring),
		mask:  uint64(ring - 1),
		limit: uint64(limit),
	}
}

// reserve returns the first cycle >= t with a free slot and takes it.
func (s *slotCounter) reserve(t uint64) uint64 {
	for {
		sl := &s.slots[t&s.mask]
		if *sl>>slotCountBits != t {
			*sl = t << slotCountBits
		}
		if *sl&(1<<slotCountBits-1) < s.limit {
			*sl++
			if check.Enabled {
				check.Assertf(t < 1<<(64-slotCountBits), "pipeline.slots",
					"cycle %d does not fit a slot beside its count", t)
			}
			return t
		}
		t++
	}
}

// regState is the timing state of one architectural register.
type regState struct {
	ready  uint64 // cycle the value is available to dependents
	verify uint64 // cycle the value is non-speculative (>= ready)
}

// storeRec is the timing of an in-flight store for memory dependence
// scheduling; the machine keeps its address in the same ring slot.
type storeRec struct {
	pc        uint32
	addrReady uint64
	dataReady uint64
	seq       uint64
}

// storeSetTable is the Chrysos/Emer predictor state: the store-set id
// table (SSIT, PC indexed) and the last-fetched-store table (LFST, set
// indexed).
type storeSetTable struct {
	ssit   map[uint32]uint32
	lfst   map[uint32]storeRec
	nextID uint32
}

func newStoreSetTable() *storeSetTable {
	return &storeSetTable{ssit: make(map[uint32]uint32), lfst: make(map[uint32]storeRec)}
}

// lastStore returns the set's last store for a load PC, if the load has
// an assigned set with a recorded store.
func (t *storeSetTable) lastStore(loadPC uint32) (storeRec, bool) {
	id, ok := t.ssit[loadPC>>2]
	if !ok {
		return storeRec{}, false
	}
	rec, ok := t.lfst[id]
	return rec, ok
}

// recordStore notes a dispatched store in its set's LFST slot.
func (t *storeSetTable) recordStore(rec storeRec) {
	if id, ok := t.ssit[rec.pc>>2]; ok {
		t.lfst[id] = rec
	}
}

// train assigns the violating (store PC, load PC) pair to a common set,
// using the Chrysos/Emer merge rule (both keep the smaller id).
func (t *storeSetTable) train(storePC, loadPC uint32) {
	sk, lk := storePC>>2, loadPC>>2
	sid, sok := t.ssit[sk]
	lid, lok := t.ssit[lk]
	switch {
	case !sok && !lok:
		t.nextID++
		t.ssit[sk], t.ssit[lk] = t.nextID, t.nextID
	case sok && !lok:
		t.ssit[lk] = sid
	case !sok && lok:
		t.ssit[sk] = lid
	case sid != lid:
		if sid < lid {
			t.ssit[lk] = sid
		} else {
			t.ssit[sk] = lid
		}
	}
}

// Timing class of a predecoded instruction (the dispatch order of
// step's switch).
const (
	kALU uint8 = iota
	kLoad
	kStore
	kBranch
	kJump
	kHalt
)

// noDest marks a decoded instruction without a destination register.
const noDest = 0xff

// decoded is the per-static-instruction timing metadata step needs every
// cycle: timing class, non-R0 source registers, destination (noDest if
// none), and ALU latency. Each Sim precomputes it for its program
// (decodeProgram), which removes the Sources/Dest/Class calls from the
// per-instruction path.
type decoded struct {
	srcs [3]uint8
	nsrc uint8
	dest uint8
	kind uint8
	lat  uint8
}

func decodeProgram(prog *isa.Program) []decoded {
	dec := make([]decoded, len(prog.Insts))
	var buf [3]isa.Reg
	for i, in := range prog.Insts {
		d := &dec[i]
		d.dest = noDest
		if r, ok := in.Dest(); ok {
			d.dest = uint8(r)
		}
		for _, r := range in.Sources(buf[:0]) {
			if r == isa.R0 {
				continue // R0 is always ready; opTimes skipped it too
			}
			d.srcs[d.nsrc] = uint8(r)
			d.nsrc++
		}
		switch {
		case in.IsLoad():
			d.kind = kLoad
		case in.IsStore():
			d.kind = kStore
		case in.IsBranch():
			d.kind = kBranch
		case in.IsJump():
			d.kind = kJump
		case in.Op == isa.OpHalt:
			d.kind = kHalt
		default:
			d.kind = kALU
			d.lat = uint8(in.Op.Class().Latency())
		}
	}
	return dec
}

// Sim runs timing simulations. Create with New or NewReplay; one Sim per
// program run. A Sim holds only timing state: what the caches, the
// branch predictor, the store-address search and the sampling schedule
// decide arrives with each committed instruction (committed.Out), from
// its walk's machine or its live feed's.
type Sim struct {
	cfg  Config
	prog *isa.Program
	dec  []decoded

	// live feeds a Sim from New; is is the recording a Sim from
	// NewReplay is walked over, and counts the execution profile its
	// walk rebuilds (a live interpreter keeps its own).
	live   *liveFeed
	is     *trace.IStream
	counts funcsim.Counts

	// srt is the Synonym Rename Table, nil for the base processor: in
	// this timing model the "tag" installed for a synonym is the
	// producer's value-ready cycle, which is exactly what a consumer
	// resolving through the tag would observe. The engine's decisions
	// arrive with each committed access (committed.Dec).
	srt *cloak.SRT

	regs [isa.NumRegs]regState

	issue *slotCounter
	ports *slotCounter

	nextFetch  uint64 // earliest cycle the next instruction can fetch
	fetchCount uint16 // instructions fetched in nextFetch's cycle
	// refetch: a redirect restarted fetch, so the next instruction
	// accesses the L1I even when it stays in the previous instruction's
	// block. The machine accesses a block only when it changes; such a
	// re-access is an L1I hit on the line accessed last, which leaves
	// every set's LRU order as it was, so the Sim only counts it.
	refetch bool

	commitRing  []uint64 // commit time of the last WindowSize instructions
	winIdx      int      // seq % WindowSize, maintained incrementally
	lsqRing     []uint64 // commit time of the last LSQSize memory operations
	lsqIdx      int      // memOps % LSQSize, maintained incrementally
	memOps      uint64
	lastCommit  uint64
	lastCommits int // instructions committed in lastCommit's cycle

	// stores is the timing of the last LSQSize timing-phase stores, in
	// the machine's store-ring slots (committed.Out.conflict indexes it).
	stores    []storeRec
	storeHead int
	ssets     *storeSetTable
	seq       uint64

	// amax is a monotonic deque over the store ring's addrReady times
	// (front = exact sliding-window max), allocated only under NoSpec —
	// the one policy that gates loads on every earlier store address.
	amax     []amaxEntry
	amaxHead int
	amaxLen  int

	// The Sim's own tallies behind Result's L1DMissRate, L1IMissRate and
	// BranchAcc, counted from the outcomes of the instructions it took.
	l1dMiss, l1iMiss, branchHit frac

	res Result

	st committed // the current committed instruction

	// Run state, kept across a walk's steps.
	col     int    // the walk's decision column this Sim reads, if cloaked
	pending uint64 // instructions not yet added to instsCommitted
	done    bool   // a walked Sim takes no further instruction
	err     error  // why a walked Sim stopped early, if it failed

	sc     bool
	scSamp check.Sampler
}

// frac counts events (den) and those among them of interest (num), and
// its value is their ratio, as cache.Cache.MissRate and
// bpred.Predictor.Accuracy compute it.
type frac struct{ num, den uint64 }

func (f *frac) add(in bool) {
	f.den++
	if in {
		f.num++
	}
}

func (f frac) value() float64 {
	if f.den == 0 {
		return 0
	}
	return float64(f.num) / float64(f.den)
}

// amaxEntry is one candidate in the sliding-window max over store
// address-ready times.
type amaxEntry struct {
	seq       uint64
	addrReady uint64
}

// New prepares a timing simulation of prog with a live functional feed.
func New(prog *isa.Program, cfg Config) *Sim {
	s := newSim(prog, cfg)
	s.live = newLiveFeed(prog, s.dec, cfg, s.sc)
	return s
}

// newSim builds everything but the feed (see New and NewReplay).
func newSim(prog *isa.Program, cfg Config) *Sim {
	s := &Sim{
		cfg:        cfg,
		prog:       prog,
		dec:        decodeProgram(prog),
		issue:      newSlotCounter(cfg.Width, 1<<14),
		ports:      newSlotCounter(cfg.MemPorts, 1<<14),
		commitRing: make([]uint64, cfg.WindowSize),
		lsqRing:    make([]uint64, cfg.LSQSize),
		stores:     make([]storeRec, 0, cfg.LSQSize),
	}
	if cfg.Cloak != nil {
		s.srt = cloak.NewSRT(0, 0)
	}
	if cfg.MemSpec == StoreSets {
		s.ssets = newStoreSetTable()
	}
	if cfg.MemSpec == NoSpec {
		s.amax = make([]amaxEntry, cfg.LSQSize+1)
	}
	if SelfCheckEnabled() {
		s.sc = true
		s.scSamp = check.NewSampler(sweepInterval)
	}
	return s
}

// Run simulates to completion (or cfg.MaxInsts) and returns the result.
// A Sim from NewReplay runs as a walk of one Sim.
func (s *Sim) Run() (Result, error) {
	if s.live == nil {
		res, errs := Walk([]*Sim{s}, 1)
		return res[0], errs[0]
	}
	defer s.flush()
	for !s.atLimit() {
		ok, err := s.live.next(&s.st)
		if err != nil {
			return s.res, err
		}
		if !ok {
			break
		}
		if err := s.commit(); err != nil {
			return s.res, err
		}
	}
	return s.finish(), nil
}

// atLimit reports that the Sim has committed cfg.MaxInsts instructions.
func (s *Sim) atLimit() bool {
	return s.cfg.MaxInsts != 0 && s.res.Insts >= s.cfg.MaxInsts
}

// commit times the current instruction (s.st), or observes it
// functionally between samples as its outcome says, counts its cache
// accesses, and polls cfg.Interrupt every funcsim.InterruptEvery
// instructions.
func (s *Sim) commit() error {
	o := &s.st.Out
	if o.flags&outResume != 0 {
		// Re-enter timing with a quiet machine: stale register timestamps
		// from the previous sample are all in the past.
		s.redirect(s.lastCommit)
	}
	if o.fetchLat != 0 {
		s.l1iMiss.add(o.fetchLat > l1HitLatency)
	} else if s.refetch {
		s.l1iMiss.add(false)
	}
	s.refetch = false
	if o.dataLat != 0 {
		s.l1dMiss.add(o.dataLat > l1HitLatency)
	}
	if o.flags&outTimed != 0 {
		s.step()
	} else {
		s.stepFunctional()
	}
	if s.pending++; s.pending == uint64(funcsim.InterruptEvery) {
		s.flush()
		if s.cfg.Interrupt != nil {
			if err := s.cfg.Interrupt(); err != nil {
				return fmt.Errorf("pipeline: interrupted after %d insts: %w", s.res.Insts, err)
			}
		}
	}
	return nil
}

// flush adds the instructions committed since the last flush to
// instsCommitted.
func (s *Sim) flush() {
	instsCommitted.Add(s.pending)
	s.pending = 0
}

// finish completes the Result of a run that reached its end.
func (s *Sim) finish() Result {
	s.res.Cycles = s.lastCommit
	s.res.Insts = s.execCounts().Insts
	s.res.L1DMissRate = s.l1dMiss.value()
	s.res.L1IMissRate = s.l1iMiss.value()
	s.res.BranchAcc = s.branchHit.value()
	return s.res
}

// execCounts returns the execution profile of the instructions
// committed so far: the live interpreter's, or the one a walk rebuilds.
func (s *Sim) execCounts() funcsim.Counts {
	if s.live != nil {
		return s.live.sim.Counts
	}
	return s.counts
}

// advanceSeq commits one instruction's sequence bookkeeping: the global
// order counter and its maintained window-ring index.
func (s *Sim) advanceSeq() {
	s.seq++
	s.winIdx++
	if s.winIdx == s.cfg.WindowSize {
		s.winIdx = 0
	}
}

// stepFunctional processes the current committed instruction (s.st) in
// functional-sampling mode: no cycles pass, but the caches, branch
// predictors and cloaking tables observe the instruction (the paper's
// functional-sampling semantics). The machine and the engine have
// already observed it; the Sim counts its branch prediction and
// installs its cloak value.
func (s *Sim) stepFunctional() {
	switch s.dec[s.st.PC>>2].kind {
	case kLoad, kStore:
		if s.srt != nil {
			s.produce(s.lastCommit)
		}
	case kBranch:
		s.branchHit.add(s.st.Out.flags&outMispredict == 0)
	}
	s.advanceSeq()
	s.res.Insts++
}

// fetchSlot assigns the fetch cycle for the next instruction, honouring
// width and I-cache latency.
func (s *Sim) fetchSlot() uint64 {
	// I-cache: charge extra latency when a fetch block misses.
	if lat := uint64(s.st.Out.fetchLat); lat > l1HitLatency {
		s.nextFetch += lat - l1HitLatency
		s.fetchCount = 0
	}
	if s.fetchCount >= uint16(s.cfg.Width) {
		s.nextFetch++
		s.fetchCount = 0
	}
	s.fetchCount++
	return s.nextFetch
}

// redirect restarts fetch at the given cycle (branch mispredict, squash).
func (s *Sim) redirect(at uint64) {
	if at+1 > s.nextFetch {
		s.nextFetch = at + 1
		s.fetchCount = 0
		s.refetch = true
	}
}

// windowEntry returns the cycle the instruction can occupy a window slot.
func (s *Sim) windowEntry(decode uint64) uint64 {
	// The entry used WindowSize instructions ago must have committed.
	free := s.commitRing[s.winIdx]
	if decode < free {
		return free
	}
	return decode
}

// lsqEntry additionally gates memory operations on a free load/store
// scheduler slot: the entry used LSQSize memory operations ago must have
// committed.
func (s *Sim) lsqEntry(entry uint64) uint64 {
	if free := s.lsqRing[s.lsqIdx]; entry < free {
		entry = free
	}
	return entry
}

// retireMemOp records a memory operation's commit time in the LSQ ring.
// commitAt is an upper bound set at issue time; exact commit times are
// only known later, so the ring stores the instruction's completion,
// which commit can never precede.
func (s *Sim) retireMemOp(done uint64) {
	s.lsqRing[s.lsqIdx] = done + 1
	s.memOps++
	s.lsqIdx++
	if s.lsqIdx == s.cfg.LSQSize {
		s.lsqIdx = 0
	}
}

// opTimes returns the max ready and verify times over the source regs.
func (s *Sim) opTimes(d *decoded) (ready, verify uint64) {
	for _, r := range d.srcs[:d.nsrc] {
		reg := &s.regs[r]
		if reg.ready > ready {
			ready = reg.ready
		}
		if reg.verify > verify {
			verify = reg.verify
		}
	}
	return
}

// setDest records the destination register's timing. verify is clamped
// up to ready: a value cannot be verified before it exists. ALU and
// jump results inherit opVerify from their sources, which can precede
// the result's own availability; every consumer maxes verify with a
// time that already covers ready, so the clamp is output-neutral, but
// without it the documented regState invariant (verify >= ready) is
// violated on any operation whose sources verify early.
func (s *Sim) setDest(dest uint8, ready, verify uint64) {
	if verify < ready {
		verify = ready
	}
	if dest != noDest {
		s.regs[dest] = regState{ready: ready, verify: verify}
	}
}

// maxStoreAddrReady returns the latest address-ready time over all
// stores in the scheduler (the NoSpec issue gate): the front of the
// monotonic deque maintained by recordStore.
func (s *Sim) maxStoreAddrReady() uint64 {
	if s.amaxLen == 0 {
		return 0
	}
	return s.amax[s.amaxHead].addrReady
}

// recordStore inserts a store's timing into the scheduler ring, in the
// slot machine.recordStore gives its address, and under NoSpec keeps the
// sliding-window max of address-ready times in sync with the ring
// contents.
func (s *Sim) recordStore(rec storeRec) {
	if s.amax != nil {
		// Dominated candidates (no later than the newcomer and older) can
		// never again be the window max.
		for s.amaxLen > 0 {
			back := (s.amaxHead + s.amaxLen - 1) % len(s.amax)
			if s.amax[back].addrReady > rec.addrReady {
				break
			}
			s.amaxLen--
		}
	}
	if len(s.stores) < s.cfg.LSQSize {
		s.stores = append(s.stores, rec)
	} else {
		old := s.stores[s.storeHead]
		if s.amax != nil && s.amaxLen > 0 && s.amax[s.amaxHead].seq == old.seq {
			s.amaxHead = (s.amaxHead + 1) % len(s.amax)
			s.amaxLen--
		}
		s.stores[s.storeHead] = rec
		s.storeHead++
		if s.storeHead == s.cfg.LSQSize {
			s.storeHead = 0
		}
	}
	if s.amax != nil {
		s.amax[(s.amaxHead+s.amaxLen)%len(s.amax)] = amaxEntry{seq: rec.seq, addrReady: rec.addrReady}
		s.amaxLen++
	}
}

// step processes the current committed instruction (s.st) through the
// dataflow timing model.
func (s *Sim) step() {
	pc := s.st.PC
	d := &s.dec[pc>>2]

	// --- Front end ---
	fetch := s.fetchSlot()
	decode := fetch + uint64(s.cfg.FrontEndDepth)
	entry := s.windowEntry(decode)

	nextPC := s.st.NextPC

	// --- Timing by class ---
	opReady, opVerify := s.opTimes(d)
	var done, verify uint64

	switch d.kind {
	case kLoad:
		done, verify = s.timeLoad(entry, opReady, decode)
		s.setDest(d.dest, done, verify)
	case kStore:
		s.timeStore(s.st.Inst, entry, decode)
		done, verify = entry, opVerify // its cache access costs it nothing (timeStore)
	case kBranch:
		done = s.issue.reserve(max(entry, opReady)) + 1
		// Control with value-speculative inputs cannot resolve until the
		// inputs verify (Section 5.6.1).
		resolve := max(done, opVerify)
		mispredict := s.st.Out.flags&outMispredict != 0
		s.res.Branches++
		s.branchHit.add(!mispredict)
		if mispredict {
			s.res.BranchMispredicts++
			s.redirect(resolve)
		}
		verify = opVerify
	case kJump:
		done = s.issue.reserve(max(entry, opReady)) + 1
		// A return or other indirect jump the machine mispredicted.
		if s.st.Out.flags&outMispredict != 0 {
			s.res.BranchMispredicts++
			s.redirect(max(done, opVerify))
		}
		s.setDest(d.dest, done, opVerify)
		verify = opVerify
	case kHalt:
		done = entry
		verify = opVerify
	default: // kALU (ALU / FP)
		start := s.issue.reserve(max(entry, opReady))
		done = start + uint64(d.lat)
		verify = opVerify
		s.setDest(d.dest, done, verify)
	}

	// The fetch unit delivers contiguous instructions: a taken control
	// transfer ends the fetch group (the front end continues at the
	// predicted target next cycle).
	if (d.kind == kBranch || d.kind == kJump) && nextPC != pc+4 {
		if s.nextFetch <= fetch {
			s.nextFetch = fetch + 1
			s.fetchCount = 0
		}
	}

	// --- Commit (in order, width-limited) ---
	// Commit cycles never decrease, so only lastCommit's cycle can be
	// partly taken: a later one is always free.
	ct := max(done+1, s.lastCommit)
	if ct == s.lastCommit && s.lastCommits == s.cfg.Width {
		ct++
	}
	if ct != s.lastCommit {
		s.lastCommits = 0
	}
	s.lastCommits++
	if check.Enabled {
		check.Assertf(decode >= fetch, "pipeline.time", "decode %d precedes fetch %d", decode, fetch)
		check.Assertf(entry >= decode, "pipeline.time", "window entry %d precedes decode %d", entry, decode)
		check.Assertf(ct > done, "pipeline.time", "commit %d not after completion %d", ct, done)
		check.Assertf(ct >= s.lastCommit, "pipeline.time", "commit %d regresses behind %d", ct, s.lastCommit)
		check.Assertf(ct >= s.commitRing[s.winIdx], "pipeline.window",
			"commit %d precedes the slot's previous occupant", ct)
	}
	s.lastCommit = ct
	s.commitRing[s.winIdx] = ct
	s.advanceSeq()
	s.res.Insts++
	s.res.TimedInsts++
	if s.sc && s.scSamp.Tick() {
		s.checkInvariants()
	}
}

// timeLoad computes a load's completion and verification times, handling
// memory dependence speculation and cloaking.
func (s *Sim) timeLoad(entry, opReady, decode uint64) (done, verify uint64) {
	pc := s.st.PC
	entry = s.lsqEntry(entry)
	addrReady := s.issue.reserve(max(entry, opReady)) + 1 // agen
	// One cycle through the load/store scheduler after agen, then a port.
	port := s.ports.reserve(max(addrReady+1, entry))

	var conflict *storeRec
	if c := s.st.Out.conflict; c >= 0 {
		conflict = &s.stores[c]
	}

	memStart := port
	violation := false
	switch s.cfg.MemSpec {
	case StoreSets:
		// Wait for the predicted store set's last store, then behave like
		// naive speculation; violations train the SSIT.
		if pred, ok := s.ssets.lastStore(pc); ok {
			if pred.addrReady > memStart {
				memStart = pred.addrReady
			}
		}
		if conflict != nil {
			if conflict.addrReady <= memStart {
				t := max(memStart, conflict.dataReady)
				s.res.StoreForwards++
				done = t + 1
			} else {
				violation = true
				s.res.MemViolations++
				s.ssets.train(conflict.pc, pc)
				detect := conflict.addrReady
				s.redirect(detect)
				restart := detect + 1 + uint64(s.cfg.FrontEndDepth)
				done = max(restart, conflict.dataReady) + 1
			}
		}
	case NoSpec:
		// Wait for every earlier store address.
		memStart = max(memStart, s.maxStoreAddrReady())
		if conflict != nil {
			// Forward once data is ready.
			t := max(memStart, conflict.dataReady)
			s.res.StoreForwards++
			done = t + 1
		}
	case NaiveSpec:
		if conflict != nil {
			if conflict.addrReady <= memStart {
				// Known conflict: wait and forward (rule 2).
				t := max(memStart, conflict.dataReady)
				s.res.StoreForwards++
				done = t + 1
			} else {
				// The load issued before the conflicting store posted its
				// address: memory-order violation, squash from the load.
				violation = true
				s.res.MemViolations++
				detect := conflict.addrReady
				s.redirect(detect)
				// Re-executed load: re-fetch through the front end, then
				// forward from the store.
				restart := detect + 1 + uint64(s.cfg.FrontEndDepth)
				done = max(restart, conflict.dataReady) + 1
			}
		}
	}
	if done == 0 {
		// Plain cache access: no in-flight store has the address.
		done = memStart + uint64(s.st.Out.dataLat)
	}
	verify = done

	// --- Cloaking: predicted consumer loads obtain a speculative value
	// at decode; verification happens when the memory access completes.
	if s.srt != nil && !violation {
		done = s.cloakLoad(decode, done)
	} else if s.srt != nil {
		// A squashed load forgoes its speculative value, but a producer
		// still deposits the one it fetches.
		s.produce(done)
	}
	s.retireMemOp(verify)
	return done, verify
}

// cloakLoad applies the engine's decision for a load and returns the
// load's effective result-availability time.
func (s *Sim) cloakLoad(decode, memDone uint64) uint64 {
	// Resolve the prediction through the SRT before this load deposits
	// its own value: a load can consume and produce for one synonym.
	d := &s.st.Dec
	var specReady uint64
	var predicted bool
	if d.Consumer {
		if t, ok := s.srt.Lookup(d.Synonym); ok {
			predicted = true
			specReady = max(decode+1, t)
			if s.cfg.Bypassing {
				// Consumers link directly to the producer (Section 3.2).
				specReady = max(decode, t)
			}
		}
	}
	// The producing load deposits its value when its memory access
	// completes ("the value has to be fetched from memory by the first
	// load", Section 3.1).
	s.produce(memDone)
	if !predicted || !d.Used {
		return memDone
	}
	if !d.Correct && s.cfg.Recovery == Oracle {
		// The oracle declines to speculate; no value is used and no
		// recovery is needed.
		s.res.SpecSkipped++
		return memDone
	}
	s.res.SpecUsed++
	if d.Correct {
		s.res.SpecCorrect++
		if d.RAR {
			s.res.SpecRAR++
		} else {
			s.res.SpecRAW++
		}
		if specReady < memDone {
			return specReady
		}
		return memDone
	}
	// Value misspeculation.
	s.res.SpecWrong++
	if s.cfg.Recovery == Squash {
		// Invalidate everything from the mispeculated use: restart fetch
		// after verification.
		s.redirect(memDone)
	}
	// Selective: dependents re-execute with the correct value, i.e. the
	// result is simply available at verification time.
	return memDone
}

// produce installs the current access in the SRT at time ready, if the
// engine decided it produces for its synonym.
func (s *Sim) produce(ready uint64) {
	if d := &s.st.Dec; d.Producer {
		s.srt.Install(d.Synonym, ready, s.seq)
	}
}

// timeStore computes a store's scheduling and records it for dependence
// checks. A store's own cache access costs it nothing: it completes at
// commit, and a full write buffer, which could stall it, is not modelled.
func (s *Sim) timeStore(in isa.Inst, entry, decode uint64) {
	entry = s.lsqEntry(entry)
	// Address generation needs the base register; data needs Rt. Stores
	// post address and data independently (rules 3 and 4).
	baseReady := s.regs[in.Rs].ready
	dataReady := s.regs[in.Rt].ready
	if in.Rs == isa.R0 {
		baseReady = 0
	}
	if in.Rt == isa.R0 {
		dataReady = 0
	}
	addrReady := s.issue.reserve(max(entry, baseReady)) + 1
	port := s.ports.reserve(max(addrReady+1, entry))

	rec := storeRec{
		pc:        s.st.PC,
		addrReady: port,
		dataReady: max(dataReady, port),
		seq:       s.seq,
	}
	s.recordStore(rec)
	s.retireMemOp(rec.dataReady)
	if s.ssets != nil {
		s.ssets.recordStore(rec)
	}

	if s.srt != nil {
		// Producer stores deposit their value once the data is known.
		s.produce(max(decode+1, dataReady))
	}
}

// RunProgram is a convenience wrapper: simulate prog under cfg.
func RunProgram(prog *isa.Program, cfg Config) (Result, error) {
	return New(prog, cfg).Run()
}
