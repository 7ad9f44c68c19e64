package cloak

import (
	"rarpred/internal/check"
	"rarpred/internal/container"
)

// DepKind classifies a detected memory dependence.
type DepKind uint8

const (
	// DepNone means no dependence.
	DepNone DepKind = iota
	// DepRAW is a store → load (read-after-write) dependence.
	DepRAW
	// DepRAR is a load → load (read-after-read) dependence: both loads
	// read the same address with no intervening store.
	DepRAR
)

// String names the dependence kind.
func (k DepKind) String() string {
	switch k {
	case DepRAW:
		return "RAW"
	case DepRAR:
		return "RAR"
	}
	return "none"
}

// Dependence is one detected (source PC, sink PC) dependence.
type Dependence struct {
	Kind     DepKind
	SourcePC uint32 // the store (RAW) or earliest load (RAR)
	SinkPC   uint32 // the consuming load
}

// Detector is the dependence-detection interface the engine drives: one
// call per committed store and load, in program order. addr is a raw
// address or an address id (container.IDs), as the detector was built
// for: NewDDT, NewSplitDDT and New's detectors take addresses, a bank's
// take ids.
type Detector interface {
	// Store records a committed store.
	Store(addr, pc uint32)
	// Load processes a committed load and reports the dependence it
	// experiences, if one is visible.
	Load(addr, pc uint32) (Dependence, bool)
}

// ddtNode is the per-address record: the PC of the most recent store and
// the PC of the earliest load since that store, linked into the LRU
// order by slice index (head = most recently used, -1 = none). id is
// the address id (see DDT) the node is resident under.
type ddtNode struct {
	id         uint32
	storePC    uint32
	loadPC     uint32
	storeValid bool
	loadValid  bool
	prev, next int32
}

const ddtNil = int32(-1)

// DDT is the Dependence Detection Table: an address-indexed,
// fully-associative, LRU-replaced cache that records, per word address,
// the PC of the last store and the PC of the earliest subsequent load.
//
// Following Section 3.1: a load is recorded only when no store has been
// recorded for the address (so RAW detection takes priority) and only
// when no other load has been recorded (so the *earliest* load in program
// order is annotated as the RAR producer).
//
// A fully-associative table compares addresses only for equality, so
// the table works on dense address ids (container.IDs) instead: nodes
// live in one slice (indices instead of pointers, no per-entry
// allocation after warm-up), and an id indexes the node slice through a
// flat array, with no hashing. A table from NewDDT numbers the raw
// addresses it is given itself, one map probe per access; a bank's
// shared detectors are handed ids by the pass (trace.AddrIDs).
type DDT struct {
	capacity    int // 0 means unbounded (the "infinite address window")
	recordLoads bool
	ids         *container.IDs // raw address → id; nil when callers pass ids
	idx         []int32        // id → resident node + 1; 0 = not resident
	nodes       []ddtNode
	head, tail  int32

	evictions uint64

	// Self-check state (see selfcheck.go); sc is snapshotted from the
	// package gate at construction and everything below is inert when
	// it is false.
	sc       bool
	scAlways bool
	ref      *refDDT
	scSamp   check.Sampler
	scLeft   int
}

var _ Detector = (*DDT)(nil)

// NewDDT returns a DDT holding at most capacity addresses (0 = unbounded).
// recordLoads selects whether loads are recorded, i.e. whether RAR
// dependences are detectable; the original RAW-only cloaking passes false.
// Its Store and Load take raw addresses. Under the package self-check
// gate (SetSelfCheck) the table cross-checks itself against a reference
// model on sampled windows.
func NewDDT(capacity int, recordLoads bool) *DDT {
	d := newDDTChecked(capacity, recordLoads, SelfCheckEnabled())
	d.ids = container.NewIDs()
	return d
}

// newDDTChecked returns a table whose Store and Load take address ids;
// sc selects the self-checking variant.
func newDDTChecked(capacity int, recordLoads bool, sc bool) *DDT {
	d := &DDT{
		capacity:    capacity,
		recordLoads: recordLoads,
		head:        ddtNil,
		tail:        ddtNil,
	}
	if capacity > 0 {
		d.nodes = make([]ddtNode, 0, capacity)
	}
	if sc {
		d.sc = true
		d.scSamp = check.NewSampler(scInterval)
	}
	return d
}

// Capacity returns the table's entry limit (0 = unbounded).
func (d *DDT) Capacity() int { return d.capacity }

// Len returns the number of resident addresses. An evicted node is
// reused by the insertion that evicted it, so every node is resident.
func (d *DDT) Len() int { return len(d.nodes) }

// Evictions returns the cumulative LRU eviction count.
func (d *DDT) Evictions() uint64 { return d.evictions }

func (d *DDT) unlink(i int32) {
	n := &d.nodes[i]
	if n.prev != ddtNil {
		d.nodes[n.prev].next = n.next
	} else {
		d.head = n.next
	}
	if n.next != ddtNil {
		d.nodes[n.next].prev = n.prev
	} else {
		d.tail = n.prev
	}
	n.prev, n.next = ddtNil, ddtNil
}

func (d *DDT) pushFront(i int32) {
	n := &d.nodes[i]
	n.next = d.head
	n.prev = ddtNil
	if d.head != ddtNil {
		d.nodes[d.head].prev = i
	}
	d.head = i
	if d.tail == ddtNil {
		d.tail = i
	}
}

func (d *DDT) touch(i int32) {
	if d.head == i {
		return
	}
	d.unlink(i)
	d.pushFront(i)
}

// addrID returns addr's id under ids, or addr itself when ids is nil
// (the caller passes ids).
func addrID(ids *container.IDs, addr uint32) uint32 {
	if ids != nil {
		return ids.ID(addr)
	}
	return addr
}

// resident returns the node index of id, or ddtNil.
func (d *DDT) resident(id uint32) int32 {
	if int(id) < len(d.idx) {
		return d.idx[id] - 1
	}
	return ddtNil
}

// lookup returns the resident node for id, touching it, or allocates
// one (evicting LRU if at capacity) when alloc is set. The pointer is
// valid until the next lookup.
func (d *DDT) lookup(id uint32, alloc bool) *ddtNode {
	if i := d.resident(id); i != ddtNil {
		d.touch(i)
		return &d.nodes[i]
	}
	if !alloc {
		return nil
	}
	d.idx = container.Grow(d.idx, id)
	var i int32
	if d.capacity > 0 && len(d.nodes) == d.capacity {
		// The LRU entry leaves, and its node takes the new address.
		i = d.tail
		d.unlink(i)
		d.idx[d.nodes[i].id] = 0
		d.evictions++
		d.nodes[i] = ddtNode{id: id, prev: ddtNil, next: ddtNil}
	} else {
		i = int32(len(d.nodes))
		d.nodes = append(d.nodes, ddtNode{id: id, prev: ddtNil, next: ddtNil})
	}
	d.idx[id] = i + 1
	d.pushFront(i)
	if check.Enabled {
		check.Assertf(d.head == i, "ddt.lru", "fresh node %d not at head (head=%d)", i, d.head)
		check.Assertf(d.capacity == 0 || len(d.nodes) <= d.capacity,
			"ddt.capacity", "%d resident entries exceed capacity %d", len(d.nodes), d.capacity)
	}
	return &d.nodes[i]
}

// peek returns the resident node for id without touching recency.
func (d *DDT) peek(id uint32) *ddtNode {
	if i := d.resident(id); i != ddtNil {
		return &d.nodes[i]
	}
	return nil
}

// Store records a committed store: the entry's store PC is replaced and
// any load annotation is cleared, because a store breaks the RAR chain
// through this address.
func (d *DDT) Store(addr, pc uint32) {
	id := addrID(d.ids, addr)
	n := d.lookup(id, true)
	n.storePC = pc
	n.storeValid = true
	n.loadValid = false
	if d.sc {
		if d.ref != nil {
			d.ref.store(id, pc)
		}
		d.scStep()
	}
}

// Load processes a committed load. If a store is visible for the address
// the load has a RAW dependence with it; otherwise, if an earlier load is
// visible the load has a RAR dependence with that (earliest) load;
// otherwise the load is recorded as the earliest load for the address
// (when load recording is enabled).
func (d *DDT) Load(addr, pc uint32) (Dependence, bool) {
	id := addrID(d.ids, addr)
	dep, ok := d.load(id, pc)
	if d.sc {
		if d.ref != nil {
			rdep, rok := d.ref.load(id, pc)
			if rok != ok || rdep != dep {
				check.Failf("ddt.oracle", "load addr=%#x (id %d) pc=%#x: table (%+v,%v), model (%+v,%v)",
					addr, id, pc, dep, ok, rdep, rok)
			}
		}
		d.scStep()
	}
	return dep, ok
}

func (d *DDT) load(id, pc uint32) (Dependence, bool) {
	n := d.lookup(id, d.recordLoads)
	if n == nil {
		return Dependence{}, false
	}
	if n.storeValid {
		return Dependence{Kind: DepRAW, SourcePC: n.storePC, SinkPC: pc}, true
	}
	if !d.recordLoads {
		return Dependence{}, false
	}
	if n.loadValid {
		if n.loadPC == pc {
			// The same static load re-reading the address: not a (PC1,PC2)
			// pair, and the earliest-load annotation is unchanged.
			return Dependence{}, false
		}
		return Dependence{Kind: DepRAR, SourcePC: n.loadPC, SinkPC: pc}, true
	}
	n.loadPC = pc
	n.loadValid = true
	return Dependence{}, false
}

// SplitDDT is the paper's "separate DDTs, one for stores and one for
// loads" variant (end of Section 5.6.2), which eliminates the anomaly of
// stores being evicted by loads to unrelated addresses. Each half has its
// own capacity and LRU state.
type SplitDDT struct {
	stores *DDT
	loads  *DDT
	ids    *container.IDs // raw address → id, shared by both halves; nil when callers pass ids

	// Self-check state (see selfcheck.go). The halves are built with
	// their own checking off: SplitDDT manipulates their nodes directly
	// (peek-kill on stores, probe-touch on loads), so the reference
	// model must live at the split level to see the interplay.
	sc       bool
	scAlways bool
	ref      *refSplit
	scSamp   check.Sampler
	scLeft   int
}

var _ Detector = (*SplitDDT)(nil)

// NewSplitDDT returns a split detector with the given per-half
// capacities (0 = unbounded). Its Store and Load take raw addresses.
func NewSplitDDT(storeCapacity, loadCapacity int) *SplitDDT {
	s := newSplitDDTChecked(storeCapacity, loadCapacity, SelfCheckEnabled())
	s.ids = container.NewIDs()
	return s
}

// newSplitDDTChecked returns a split detector whose Store and Load take
// address ids; sc selects the self-checking variant.
func newSplitDDTChecked(storeCapacity, loadCapacity int, sc bool) *SplitDDT {
	s := &SplitDDT{
		stores: newDDTChecked(storeCapacity, false, false),
		loads:  newDDTChecked(loadCapacity, true, false),
	}
	if sc {
		s.sc = true
		s.scSamp = check.NewSampler(scInterval)
	}
	return s
}

// Store records the store in the store half and kills any load
// annotation for the address in the load half (an intervening store
// breaks RAR chains regardless of which table tracks them).
func (s *SplitDDT) Store(addr, pc uint32) {
	id := addrID(s.ids, addr)
	s.stores.Store(id, pc)
	if n := s.loads.peek(id); n != nil {
		n.loadValid = false
		n.storeValid = false
	}
	if s.sc {
		if s.ref != nil {
			s.ref.store(id, pc)
		}
		s.scStep()
	}
}

// Load checks the store half first (RAW takes priority, as in the
// combined table) and falls back to the load half for RAR detection and
// earliest-load recording.
func (s *SplitDDT) Load(addr, pc uint32) (Dependence, bool) {
	id := addrID(s.ids, addr)
	dep, ok := s.load(id, pc)
	if s.sc {
		if s.ref != nil {
			rdep, rok := s.ref.load(id, pc)
			if rok != ok || rdep != dep {
				check.Failf("splitddt.oracle", "load addr=%#x (id %d) pc=%#x: table (%+v,%v), model (%+v,%v)",
					addr, id, pc, dep, ok, rdep, rok)
			}
		}
		s.scStep()
	}
	return dep, ok
}

func (s *SplitDDT) load(id, pc uint32) (Dependence, bool) {
	if n := s.stores.lookup(id, false); n != nil && n.storeValid {
		return Dependence{Kind: DepRAW, SourcePC: n.storePC, SinkPC: pc}, true
	}
	return s.loads.load(id, pc)
}
