package cloak

import (
	"sync/atomic"

	"rarpred/internal/check"
)

// Self-checking for the cloaking structures (rarsim -check).
//
// The DDT is the hottest and subtlest structure in the simulator — an
// intrusive LRU over a slice whose nodes are reused on eviction, found
// through an id-indexed array — so it gets the strongest treatment: a naive,
// obviously-correct executable model of Section 3.1's table (linear
// scan, MRU-first slice) is cross-checked against the real table on
// sampled windows. A window opens every scInterval operations by
// snapshotting the real table into the model; for the next scWindow
// operations both are driven with the same committed stream and every
// Load result is compared; at the window's end the full residency and
// LRU order are compared and the model is dropped. Between windows the
// only cost is one sampler tick per operation.
//
// The DPNT and SynonymFile get sampled invariant sweeps from the Engine
// (see Engine.checkInvariants). All checks only read the real
// structures, so enabling them cannot perturb simulation results.

// selfCheckAll is the package-wide runtime gate, set once by rarsim
// -check before any experiment runs. Structures consult it at
// construction time.
var selfCheckAll atomic.Bool

// SetSelfCheck toggles self-checking for cloaking structures constructed
// after the call. Detectors and engines snapshot the gate when built, so
// flipping it mid-run affects only new structures.
func SetSelfCheck(on bool) { selfCheckAll.Store(on) }

// SelfCheckEnabled reports the package-wide self-check gate.
func SelfCheckEnabled() bool { return selfCheckAll.Load() }

const (
	// scInterval operations separate reference-model comparison windows.
	scInterval = 1 << 13
	// scWindow is how many operations each window drives both models.
	scWindow = 1 << 9
	// engineSweepInterval is how many loads separate DPNT/SF invariant
	// sweeps in a self-checking Engine.
	engineSweepInterval = 1 << 12
)

// refEntry mirrors one DDT address record, keyed by the table's address
// id. PCs are normalised to zero when the matching valid bit is clear so
// snapshots and live nodes compare field-wise regardless of stale values.
type refEntry struct {
	id         uint32
	storePC    uint32
	loadPC     uint32
	storeValid bool
	loadValid  bool
}

func normRef(e refEntry) refEntry {
	if !e.storeValid {
		e.storePC = 0
	}
	if !e.loadValid {
		e.loadPC = 0
	}
	return e
}

// refDDT is the naive executable model of the dependence detection
// table: bounded tables keep an explicit MRU-first slice and pay a
// linear scan per operation; unbounded tables (no replacement to model)
// use a plain map. It exists to be obviously correct, not fast.
type refDDT struct {
	capacity    int
	recordLoads bool
	order       []refEntry // bounded: index 0 = MRU, last = LRU victim
	m           map[uint32]refEntry
	scratch     refEntry // map mode: staging copy handed out by get
}

func newRefDDT(capacity int, recordLoads bool) *refDDT {
	r := &refDDT{capacity: capacity, recordLoads: recordLoads}
	if capacity == 0 {
		r.m = make(map[uint32]refEntry)
	}
	return r
}

func (r *refDDT) find(id uint32) int {
	for i := range r.order {
		if r.order[i].id == id {
			return i
		}
	}
	return -1
}

// touch rotates entry i to the MRU position.
func (r *refDDT) touch(i int) {
	if i == 0 {
		return
	}
	e := r.order[i]
	copy(r.order[1:i+1], r.order[:i])
	r.order[0] = e
}

// get returns the entry for id touched to MRU, allocating (and evicting
// the LRU entry) when alloc is set; nil when absent and !alloc. The
// pointer is valid until the next get.
func (r *refDDT) get(id uint32, alloc bool) *refEntry {
	if r.m != nil {
		e, ok := r.m[id]
		if !ok {
			if !alloc {
				return nil
			}
			e = refEntry{id: id}
		}
		r.m[id] = e
		// Maps in Go don't give stable interior pointers; stage the
		// mutation through a copy the callers write back via put.
		r.scratch = e
		return &r.scratch
	}
	if i := r.find(id); i >= 0 {
		r.touch(i)
		return &r.order[0]
	}
	if !alloc {
		return nil
	}
	if r.capacity > 0 && len(r.order) == r.capacity {
		r.order = r.order[:len(r.order)-1]
	}
	r.order = append(r.order, refEntry{})
	copy(r.order[1:], r.order[:len(r.order)-1])
	r.order[0] = refEntry{id: id}
	return &r.order[0]
}

// store mirrors DDT.Store.
func (r *refDDT) store(id, pc uint32) {
	e := r.get(id, true)
	e.storePC, e.storeValid, e.loadValid = pc, true, false
	r.put(e)
}

// load mirrors DDT.Load.
func (r *refDDT) load(id, pc uint32) (Dependence, bool) {
	e := r.get(id, r.recordLoads)
	if e == nil {
		return Dependence{}, false
	}
	defer r.put(e)
	if e.storeValid {
		return Dependence{Kind: DepRAW, SourcePC: e.storePC, SinkPC: pc}, true
	}
	if !r.recordLoads {
		return Dependence{}, false
	}
	if e.loadValid {
		if e.loadPC == pc {
			return Dependence{}, false
		}
		return Dependence{Kind: DepRAR, SourcePC: e.loadPC, SinkPC: pc}, true
	}
	e.loadPC, e.loadValid = pc, true
	return Dependence{}, false
}

// probeTouch mirrors SplitDDT.Load's probe of the store half: touch on
// residency, report a visible store.
func (r *refDDT) probeTouch(id uint32) (pc uint32, ok bool) {
	e := r.get(id, false)
	if e == nil {
		return 0, false
	}
	defer r.put(e)
	if !e.storeValid {
		return 0, false
	}
	return e.storePC, true
}

// clearPeek mirrors SplitDDT.Store's kill of the load-half annotation:
// no recency change.
func (r *refDDT) clearPeek(id uint32) {
	if r.m != nil {
		if e, ok := r.m[id]; ok {
			e.loadValid, e.storeValid = false, false
			r.m[id] = e
		}
		return
	}
	if i := r.find(id); i >= 0 {
		r.order[i].loadValid = false
		r.order[i].storeValid = false
	}
}

// scratch backs the map-mode interior pointer returned by get; put
// writes it back.
func (r *refDDT) put(e *refEntry) {
	if r.m != nil && e == &r.scratch {
		r.m[e.id] = *e
	}
}

// refSplit models SplitDDT at the split level: the halves' interplay
// (probe-touch of the store half on loads, peek-kill of the load half on
// stores) is part of what it checks.
type refSplit struct {
	stores, loads *refDDT
}

func (r *refSplit) store(id, pc uint32) {
	r.stores.store(id, pc)
	r.loads.clearPeek(id)
}

func (r *refSplit) load(id, pc uint32) (Dependence, bool) {
	if spc, ok := r.stores.probeTouch(id); ok {
		return Dependence{Kind: DepRAW, SourcePC: spc, SinkPC: pc}, true
	}
	return r.loads.load(id, pc)
}

// snapshotRef captures the table's current residency, fields, and LRU
// order as a fresh reference model, opening a comparison window.
func (d *DDT) snapshotRef() *refDDT {
	r := newRefDDT(d.capacity, d.recordLoads)
	for i := d.head; i != ddtNil; i = d.nodes[i].next {
		n := d.nodes[i]
		e := normRef(refEntry{
			id: n.id, storePC: n.storePC, loadPC: n.loadPC,
			storeValid: n.storeValid, loadValid: n.loadValid,
		})
		if r.m != nil {
			r.m[e.id] = e
		} else {
			r.order = append(r.order, e)
		}
	}
	return r
}

// compareAgainst checks the table's residency, per-entry fields and
// (for bounded tables) exact LRU order against the reference model.
func (d *DDT) compareAgainst(r *refDDT) {
	n := 0
	for i := d.head; i != ddtNil; i = d.nodes[i].next {
		node := d.nodes[i]
		got := normRef(refEntry{
			id: node.id, storePC: node.storePC, loadPC: node.loadPC,
			storeValid: node.storeValid, loadValid: node.loadValid,
		})
		var want refEntry
		if r.m != nil {
			w, ok := r.m[node.id]
			if !ok {
				check.Failf("ddt.oracle", "id %d resident in table, absent from model", node.id)
			}
			want = w
		} else {
			if n >= len(r.order) {
				check.Failf("ddt.oracle", "table holds more than the model's %d entries", len(r.order))
			}
			want = r.order[n]
			if want.id != got.id {
				check.Failf("ddt.oracle", "LRU position %d: table id %d, model id %d",
					n, got.id, want.id)
			}
		}
		if want = normRef(want); got != want {
			check.Failf("ddt.oracle", "id %d: table %+v, model %+v", node.id, got, want)
		}
		n++
	}
	model := len(r.order)
	if r.m != nil {
		model = len(r.m)
	}
	if n != model {
		check.Failf("ddt.oracle", "table resident %d entries, model %d", n, model)
	}
}

// CheckInvariants validates the table's internal consistency: the LRU
// list is a well-formed chain covering every node of the slice, every
// node is indexed at its id and the index holds nothing else, and a
// bounded table is within capacity. Panics with *check.Violation on the
// first breach.
func (d *DDT) CheckInvariants() {
	count := 0
	prev := ddtNil
	for i := d.head; i != ddtNil; i = d.nodes[i].next {
		n := d.nodes[i]
		if n.prev != prev {
			check.Failf("ddt.lru", "node %d (id %d): prev link %d, want %d", i, n.id, n.prev, prev)
		}
		if j := d.resident(n.id); j != i {
			check.Failf("ddt.idx", "node %d (id %d) not indexed at itself (idx=%d)", i, n.id, j)
		}
		count++
		if count > len(d.nodes) {
			check.Failf("ddt.lru", "cycle: walked %d links with only %d nodes", count, len(d.nodes))
		}
		prev = i
	}
	if prev != d.tail {
		check.Failf("ddt.lru", "chain ends at node %d, tail says %d", prev, d.tail)
	}
	if count != len(d.nodes) {
		check.Failf("ddt.lru", "LRU chain holds %d nodes, slice %d", count, len(d.nodes))
	}
	indexed := 0
	for _, i := range d.idx {
		if i != 0 {
			indexed++
		}
	}
	if count != indexed {
		check.Failf("ddt.idx", "LRU chain holds %d nodes, index holds %d", count, indexed)
	}
	if d.capacity > 0 && count > d.capacity {
		check.Failf("ddt.capacity", "%d resident entries exceed capacity %d", count, d.capacity)
	}
}

// scStep advances the self-check window machinery after one operation.
func (d *DDT) scStep() {
	if d.ref != nil {
		d.scLeft--
		if d.scLeft <= 0 {
			d.compareAgainst(d.ref)
			d.CheckInvariants()
			d.ref = nil
		}
	}
	if d.ref == nil && (d.scAlways || d.scSamp.Tick()) {
		d.CheckInvariants()
		d.ref = d.snapshotRef()
		d.scLeft = scWindow
	}
}

// forceWindow pins the table in permanently chained comparison windows
// from its current state; for tests and fuzzing.
func (d *DDT) forceWindow() {
	d.sc = true
	d.scAlways = true
	d.ref = d.snapshotRef()
	d.scLeft = scWindow
}

// CheckInvariants validates both halves plus the split-level invariant
// that the load half never carries a store annotation (only Store writes
// one, and the split routes stores to the store half).
func (s *SplitDDT) CheckInvariants() {
	s.stores.CheckInvariants()
	s.loads.CheckInvariants()
	for i := s.loads.head; i != ddtNil; i = s.loads.nodes[i].next {
		if n := s.loads.nodes[i]; n.storeValid {
			check.Failf("splitddt.loads", "load half holds a store annotation for id %d", n.id)
		}
	}
}

func (s *SplitDDT) scStep() {
	if s.ref != nil {
		s.scLeft--
		if s.scLeft <= 0 {
			s.stores.compareAgainst(s.ref.stores)
			s.loads.compareAgainst(s.ref.loads)
			s.CheckInvariants()
			s.ref = nil
		}
	}
	if s.ref == nil && (s.scAlways || s.scSamp.Tick()) {
		s.CheckInvariants()
		s.ref = &refSplit{stores: s.stores.snapshotRef(), loads: s.loads.snapshotRef()}
		s.scLeft = scWindow
	}
}

func (s *SplitDDT) forceWindow() {
	s.sc = true
	s.scAlways = true
	s.ref = &refSplit{stores: s.stores.snapshotRef(), loads: s.loads.snapshotRef()}
	s.scLeft = scWindow
}

// CheckInvariants sweeps the prediction table: confidence automata stay
// within [0, confMax], synonyms are drawn from the allocator's issued
// range, and no entry is marked detected without belonging to a synonym
// group.
func (t *DPNT) CheckInvariants() {
	t.table.ForEach(func(k uint32, e *dpntEntry) {
		if e.producer.state > confMax || e.consumer.state > confMax {
			check.Failf("dpnt.conf", "key %#x: confidence state out of range (%d/%d)",
				k, e.producer.state, e.consumer.state)
		}
		if e.hasSyn && (e.synonym == 0 || e.synonym > t.nextSynonym) {
			check.Failf("dpnt.syn", "key %#x: synonym %d outside issued range 1..%d",
				k, e.synonym, t.nextSynonym)
		}
		if !e.hasSyn && (e.producer.detected || e.consumer.detected) {
			check.Failf("dpnt.syn", "key %#x: detected dependence without a synonym", k)
		}
	})
}

// CheckInvariants sweeps the synonym file: a full entry must carry the
// kind of the producer that filled it.
func (f *SynonymFile) CheckInvariants() {
	f.table.ForEach(func(syn uint32, e *SFEntry) {
		if e.Full && e.Kind != DepRAW && e.Kind != DepRAR {
			check.Failf("sf.kind", "synonym %d full with kind %v", syn, e.Kind)
		}
	})
}

// checkInvariants is the engine's sampled sweep: table invariants plus
// the stats accounting identities every committed load must preserve.
func (e *Engine) checkInvariants() {
	e.dpnt.CheckInvariants()
	e.sf.CheckInvariants()
	s := e.stats
	if s.UsedRAW != s.CorrectRAW+s.WrongRAW {
		check.Failf("engine.stats", "UsedRAW %d != CorrectRAW %d + WrongRAW %d",
			s.UsedRAW, s.CorrectRAW, s.WrongRAW)
	}
	if s.UsedRAR != s.CorrectRAR+s.WrongRAR {
		check.Failf("engine.stats", "UsedRAR %d != CorrectRAR %d + WrongRAR %d",
			s.UsedRAR, s.CorrectRAR, s.WrongRAR)
	}
	if s.LoadsWithRAW+s.LoadsWithRAR > s.Loads {
		check.Failf("engine.stats", "loads with dependences (%d+%d) exceed loads %d",
			s.LoadsWithRAW, s.LoadsWithRAR, s.Loads)
	}
	if s.UsedRAW+s.UsedRAR > s.Loads {
		check.Failf("engine.stats", "used predictions (%d+%d) exceed loads %d",
			s.UsedRAW, s.UsedRAR, s.Loads)
	}
}

// forceSelfCheckAlways pins the engine and its detector in always-on
// checking; for tests and fuzzing.
func (e *Engine) forceSelfCheckAlways() {
	e.sc = true
	e.scSamp = check.Sampler{} // zero sampler fires every tick
	switch det := e.detector.(type) {
	case *DDT:
		det.forceWindow()
	case *SplitDDT:
		det.forceWindow()
	}
}

// CheckInvariants sweeps the SRT: every live entry must be owned by an
// already-processed producer (owner < maxOwner, the caller's current
// sequence number). A future owner means a release fired for the wrong
// instruction or an install leaked a stale sequence.
func (t *SRT) CheckInvariants(maxOwner uint64) {
	t.table.ForEach(func(syn uint32, e *srtEntry) {
		if e.live && e.owner >= maxOwner {
			check.Failf("srt.owner", "synonym %d: live entry owned by future producer %d (seq %d)",
				syn, e.owner, maxOwner)
		}
	})
}
