package cloak

import (
	"fmt"
	"math/bits"

	"rarpred/internal/check"
	"rarpred/internal/container"
)

// maxSweepCaps bounds the capacities one sweep answers: per-capacity
// state lives in uint32 bit masks.
const maxSweepCaps = 32

// DDTSweep answers every capacity of a RAR-recording DDT (NewDDT(c,
// true)) in one pass over the committed stream: for each capacity, Load
// reports exactly the dependence that capacity's own table would.
//
// Every access to a RAR-recording table allocates or touches its entry,
// so tables of every capacity share one LRU stack, and a table of
// capacity C holds exactly the stack's top C addresses (the stack
// inclusion of Mattson et al., IBM Sys. J. 1970). The sweep keeps that
// one stack, bounded by the largest capacity, and cuts it into segments
// at the capacity boundaries: segment j holds stack positions
// [caps[j-1], caps[j]), the addresses resident at capacities j and up
// and evicted from the smaller ones. A tail pointer at each bounded
// boundary hands one node across it whenever an access pushes the stack
// down, so an access costs one index probe plus at most one move per
// boundary above the accessed node.
//
// Residency is shared; annotations are not. An address evicted from a
// small table and re-inserted starts over there, while a larger table
// kept its history. So a hit in segment j is a miss, and so an
// annotation reset, at every capacity below j, and each node carries its
// state per capacity:
//
//   - A store-valid bit per capacity (sv). The mask is upward closed: a
//     store whose entry stayed resident at capacity C stayed resident at
//     every larger capacity. That is why a load that sees RAW at C sees
//     RAW at every larger capacity. The store PC needs no per-capacity
//     copy: wherever its bit is set, it names the address's latest store.
//   - A load-valid bit per capacity, implied rather than stored: in a
//     RAR-recording table every access leaves exactly one of store-valid
//     and load-valid set, so a resident capacity whose store bit is clear
//     holds an earliest load.
//   - The earliest-load PC per capacity. These differ across capacities,
//     because a re-insertion at a small capacity records a later load as
//     the earliest one. A RAR at capacity C can thus become a RAR with
//     another source, a RAW, or nothing at a larger capacity, so RAR
//     detection, and with it total detection, need not grow with size.
type DDTSweep struct {
	caps    []int   // strictly ascending; a trailing 0 is unbounded
	all     uint32  // one bit per capacity
	idx     []int32 // address id → resident node + 1; 0 = not resident
	nodes   []sweepNode
	loadPCs []uint32 // earliest load of node i at capacity c: loadPCs[i*len(caps)+c]

	head, tail int32
	// tails[j] is the node at stack position caps[j]-1, the LRU entry of
	// capacity j, or ddtNil while fewer nodes are resident. Only bounded
	// capacities have one.
	tails []int32
	last  int32 // the node of the latest Load, for Source

	// Self-check state: under the package gate one checked DDT per
	// capacity shadows the sweep, and every Load is compared against them.
	shadows []*DDT
	scSamp  check.Sampler
}

// sweepNode is one resident address, by id. seg is its segment: the
// index of the smallest capacity it is resident at.
type sweepNode struct {
	id, storePC uint32
	sv          uint32
	seg         int32
	prev, next  int32
}

// zeroPCs extends loadPCs by one node's PCs without allocating.
var zeroPCs [maxSweepCaps]uint32

// NewDDTSweep returns a sweep over caps: strictly ascending positive
// capacities, optionally followed by 0 for the unbounded table, at most
// 32 in all. Capacity index c in Load's masks and in Source refers to
// caps[c]. Store and Load take address ids (trace.AddrIDs), which index
// the sweep's nodes directly. Under the package self-check gate
// (SetSelfCheck) every Load is compared against one checked DDT per
// capacity.
func NewDDTSweep(caps ...int) *DDTSweep {
	k := len(caps)
	ok := k > 0 && k <= maxSweepCaps
	for i, c := range caps {
		unbounded := c == 0 && i == k-1
		if !unbounded && (c <= 0 || i > 0 && c <= caps[i-1]) {
			ok = false
		}
	}
	if !ok {
		panic(fmt.Sprintf("cloak: DDT sweep capacities %v: want 1 to %d strictly ascending sizes, optionally ending in 0",
			caps, maxSweepCaps))
	}
	bounded := k
	if caps[k-1] == 0 {
		bounded--
	}
	hint := 0
	if bounded > 0 {
		hint = caps[bounded-1]
	}
	s := &DDTSweep{
		caps:  append([]int(nil), caps...),
		all:   ^uint32(0) >> (32 - k),
		head:  ddtNil,
		tail:  ddtNil,
		tails: make([]int32, bounded),
		last:  ddtNil,
	}
	for j := range s.tails {
		s.tails[j] = ddtNil
	}
	if bounded == k {
		s.nodes = make([]sweepNode, 0, hint)
		s.loadPCs = make([]uint32, 0, hint*k)
	}
	if SelfCheckEnabled() {
		s.shadows = make([]*DDT, k)
		for c, capacity := range caps {
			s.shadows[c] = newDDTChecked(capacity, true, true)
		}
		s.scSamp = check.NewSampler(scInterval)
	}
	return s
}

func (s *DDTSweep) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != ddtNil {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != ddtNil {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = ddtNil, ddtNil
}

func (s *DDTSweep) pushFront(i int32) {
	n := &s.nodes[i]
	n.next = s.head
	n.prev = ddtNil
	if s.head != ddtNil {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == ddtNil {
		s.tail = i
	}
}

// access moves id's node to the top of the stack, allocating it (and
// evicting the largest bounded table's LRU entry) when it is resident
// nowhere. It returns the node and the mask of capacities at which the
// address was resident before the access.
func (s *DDTSweep) access(id uint32) (int32, uint32) {
	if int(id) < len(s.idx) && s.idx[id] != 0 {
		i := s.idx[id] - 1
		n := &s.nodes[i]
		j := int(n.seg)
		if i != s.head {
			if j < len(s.tails) && s.tails[j] == i {
				s.tails[j] = n.prev
			}
			s.unlink(i)
			s.pushFront(i)
			// Every boundary above the old position moves down one slot.
			for b := 0; b < j; b++ {
				t := s.tails[b]
				s.nodes[t].seg = int32(b + 1)
				s.tails[b] = s.nodes[t].prev
			}
			n.seg = 0
		}
		return i, s.all &^ (1<<j - 1)
	}

	s.idx = container.Grow(s.idx, id)
	// Every node is resident: an evicted one is reused at once.
	resident := len(s.nodes) + 1
	var i int32
	if len(s.tails) == len(s.caps) && resident > s.caps[len(s.caps)-1] {
		// The largest table is full: its LRU entry leaves every table and
		// its node is reused.
		i = s.tail
		s.unlink(i)
		s.tails[len(s.tails)-1] = ddtNil
		s.idx[s.nodes[i].id] = 0
		resident--
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, sweepNode{})
		s.loadPCs = append(s.loadPCs, zeroPCs[:len(s.caps)]...)
	}
	s.idx[id] = i + 1
	s.nodes[i] = sweepNode{id: id, prev: ddtNil, next: ddtNil}
	s.pushFront(i)
	for b, t := range s.tails {
		if t != ddtNil {
			s.nodes[t].seg = int32(b + 1)
			s.tails[b] = s.nodes[t].prev
		} else if resident == s.caps[b] {
			s.tails[b] = s.tail
		}
	}
	return i, 0
}

// Store records a committed store to address id at every capacity.
func (s *DDTSweep) Store(id, pc uint32) {
	i, _ := s.access(id)
	n := &s.nodes[i]
	n.storePC, n.sv = pc, s.all
	if s.shadows != nil {
		for _, d := range s.shadows {
			d.Store(id, pc)
		}
		s.scStep()
	}
}

// Load processes a committed load of address id at every capacity. Bit
// c of raw is set when the load sees a RAW dependence at capacity index
// c, bit c of rar when it sees a RAR one; Source names the producers.
func (s *DDTSweep) Load(id, pc uint32) (raw, rar uint32) {
	i, hit := s.access(id)
	s.last = i
	n := &s.nodes[i]
	n.sv &= hit
	raw = n.sv
	k := len(s.caps)
	pcs := s.loadPCs[int(i)*k : int(i)*k+k]
	for m := hit &^ raw; m != 0; m &= m - 1 {
		// The same static load re-reading the address is not a pair.
		if c := bits.TrailingZeros32(m); pcs[c] != pc {
			rar |= 1 << c
		}
	}
	// Where the address was not resident, this load is the earliest one.
	for m := s.all &^ hit; m != 0; m &= m - 1 {
		pcs[bits.TrailingZeros32(m)] = pc
	}
	if check.Enabled {
		check.Assertf(upwardClosed(raw, s.all), "ddtsweep.inclusion",
			"load id %d: RAW capacity mask %#x not upward closed", id, raw)
	}
	if s.shadows != nil {
		s.checkLoad(id, pc, raw, rar)
	}
	return raw, rar
}

// Source returns the producer PC of the dependence the latest Load saw at
// capacity index c: the store of a RAW, the earliest load of a RAR. It
// is meaningful only where that Load set bit c of raw or rar, and only
// until the next Store or Load.
func (s *DDTSweep) Source(c int) uint32 {
	n := &s.nodes[s.last]
	if n.sv&(1<<c) != 0 {
		return n.storePC
	}
	return s.loadPCs[int(s.last)*len(s.caps)+c]
}

// upwardClosed reports whether mask, once any bit is set, holds every
// higher bit of all.
func upwardClosed(mask, all uint32) bool {
	return mask == 0 || mask == all&^(mask&-mask-1)
}

// checkLoad compares one Load's per-capacity results against the shadow
// tables.
func (s *DDTSweep) checkLoad(id, pc, raw, rar uint32) {
	for c, d := range s.shadows {
		want, wantOK := d.Load(id, pc)
		var got Dependence
		switch bit := uint32(1) << c; {
		case raw&bit != 0:
			got = Dependence{Kind: DepRAW, SourcePC: s.Source(c), SinkPC: pc}
		case rar&bit != 0:
			got = Dependence{Kind: DepRAR, SourcePC: s.Source(c), SinkPC: pc}
		}
		if gotOK := got.Kind != DepNone; gotOK != wantOK || got != want {
			check.Failf("ddtsweep.oracle", "capacity %d, load id %d pc=%#x: sweep (%+v,%v), DDT (%+v,%v)",
				s.caps[c], id, pc, got, gotOK, want, wantOK)
		}
	}
	s.scStep()
}

func (s *DDTSweep) scStep() {
	if s.scSamp.Tick() {
		s.CheckInvariants()
	}
}

// CheckInvariants validates the sweep's structure: the LRU chain is well
// formed and indexed, every node's segment matches its stack position,
// each boundary tail sits at its capacity's last position, the largest
// bounded capacity is not exceeded, and every store-valid mask is upward
// closed. Panics with *check.Violation on the first breach.
func (s *DDTSweep) CheckInvariants() {
	pos, seg := 0, 0
	prev := ddtNil
	for i := s.head; i != ddtNil; i = s.nodes[i].next {
		n := &s.nodes[i]
		for seg < len(s.tails) && pos >= s.caps[seg] {
			seg++
		}
		switch {
		case seg == len(s.caps):
			check.Failf("ddtsweep.capacity", "%d resident entries exceed capacity %d", pos+1, s.caps[seg-1])
		case n.prev != prev:
			check.Failf("ddtsweep.lru", "node %d (id %d): prev link %d, want %d", i, n.id, n.prev, prev)
		case int(n.seg) != seg:
			check.Failf("ddtsweep.seg", "node %d (id %d) at stack position %d: segment %d, want %d",
				i, n.id, pos, n.seg, seg)
		case seg < len(s.tails) && pos == s.caps[seg]-1 && s.tails[seg] != i:
			check.Failf("ddtsweep.tail", "capacity %d: tail %d, want node %d", s.caps[seg], s.tails[seg], i)
		case !upwardClosed(n.sv, s.all):
			check.Failf("ddtsweep.inclusion", "id %d: store-valid mask %#x not upward closed", n.id, n.sv)
		}
		if int(n.id) >= len(s.idx) || s.idx[n.id] != i+1 {
			check.Failf("ddtsweep.idx", "node %d (id %d) not indexed at itself", i, n.id)
		}
		pos++
		prev = i
		if pos > len(s.nodes) {
			check.Failf("ddtsweep.lru", "cycle: walked %d links with only %d nodes", pos, len(s.nodes))
		}
	}
	if prev != s.tail {
		check.Failf("ddtsweep.lru", "chain ends at node %d, tail says %d", prev, s.tail)
	}
	indexed := 0
	for _, i := range s.idx {
		if i != 0 {
			indexed++
		}
	}
	if pos != indexed || pos != len(s.nodes) {
		check.Failf("ddtsweep.idx", "chain holds %d nodes, index %d, slice %d", pos, indexed, len(s.nodes))
	}
	for j, t := range s.tails {
		if pos < s.caps[j] && t != ddtNil {
			check.Failf("ddtsweep.tail", "capacity %d holds %d entries but has tail %d", s.caps[j], pos, t)
		}
	}
}
