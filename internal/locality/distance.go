package locality

import (
	"math/bits"

	"rarpred/internal/container"
)

// DistanceAnalyzer measures RAR dependence *distances*: for each sink
// load, the number of unique addresses touched between the source load's
// (most recent) access to the shared address and the sink — exactly the
// quantity the paper's "address window" bounds. The distribution explains
// why a moderate DDT (128 entries) already sees most dependences
// (Section 5.2): most RAR distances are short.
//
// Distances are computed with the classic O(log n) reuse-distance
// algorithm: a Fenwick tree over access timestamps marks, for every
// address, its most recent access time; the stack distance of an access
// is the number of marked timestamps after the address's previous mark.
// Every mark sits before the current access, one per address seen, so
// that count is the live addresses less the marks up to the previous
// one: one prefix sum, plus two updates to move the mark. Addresses are
// only compared for equality, so address ids serve as well, and the
// per-address state is a flat array indexed by id.
type DistanceAnalyzer struct {
	fen   *fenwick
	ids   *container.IDs // raw address → id; nil when callers pass ids
	addrs []addrState    // by address id
	seen  int            // addresses touched so far, one mark each
	time  int

	// Histogram buckets: power-of-two upper bounds 2^0..2^(buckets-1),
	// with the final bucket catching everything larger.
	hist  []uint64
	total uint64
}

const distanceBuckets = 22 // up to 2^21 unique addresses, then overflow

// addrState is what the analyzer keeps per address.
type addrState struct {
	time    int    // timestamp of the most recent access; 0 = never touched
	loadPC  uint32 // the earliest load since the latest store, if hasLoad
	hasLoad bool
}

// NewDistanceAnalyzer returns an empty analyzer whose Store and Load
// take raw addresses: it numbers them itself, one map probe per access.
func NewDistanceAnalyzer() *DistanceAnalyzer {
	d := NewDistanceAnalyzerIDs()
	d.ids = container.NewIDs()
	return d
}

// NewDistanceAnalyzerIDs returns an empty analyzer whose Store and Load
// take address ids (trace.AddrIDs), which index its state directly.
func NewDistanceAnalyzerIDs() *DistanceAnalyzer {
	return &DistanceAnalyzer{
		fen:  newFenwick(1 << 10),
		hist: make([]uint64, distanceBuckets),
	}
}

// touch updates the recency structures for an access and returns addr's
// state and the stack distance to its previous access (-1 if first
// touch). The state pointer is valid until the next touch.
func (d *DistanceAnalyzer) touch(addr uint32) (*addrState, int) {
	id := addr
	if d.ids != nil {
		id = d.ids.ID(addr)
	}
	d.addrs = container.Grow(d.addrs, id)
	a := &d.addrs[id]
	d.time++
	dist := -1
	if a.time == 0 {
		d.seen++
	} else {
		// Unique addresses touched strictly after the previous access =
		// marks in (a.time, time); every address seen holds one mark.
		dist = d.seen - d.fen.sum(a.time)
		d.fen.add(a.time, -1)
	}
	a.time = d.time
	d.fen.add(d.time, 1)
	return a, dist
}

// Store observes a committed store: it refreshes recency and breaks the
// RAR chain through addr.
func (d *DistanceAnalyzer) Store(pc, addr uint32) {
	a, _ := d.touch(addr)
	a.hasLoad = false
}

// Load observes a committed load. If a different static load touched the
// address more recently than any store, the RAR distance is recorded.
// An address with a load on record has been touched before, so its
// distance is defined.
func (d *DistanceAnalyzer) Load(pc, addr uint32) {
	a, dist := d.touch(addr)
	switch {
	case !a.hasLoad:
		a.loadPC, a.hasLoad = pc, true
	case a.loadPC != pc:
		d.record(dist)
	}
}

func (d *DistanceAnalyzer) record(dist int) {
	d.total++
	b := 0
	for (1<<b) <= dist && b < distanceBuckets-1 {
		b++
	}
	d.hist[b]++
}

// Sinks returns the number of recorded RAR sink instances.
func (d *DistanceAnalyzer) Sinks() uint64 { return d.total }

// CDF returns the fraction of RAR dependences with distance < bound.
func (d *DistanceAnalyzer) CDF(bound int) float64 {
	if d.total == 0 {
		return 0
	}
	var n uint64
	for b := 0; b < distanceBuckets; b++ {
		if 1<<b > bound {
			break
		}
		n += d.hist[b]
	}
	return float64(n) / float64(d.total)
}

// Percentile returns the smallest power-of-two distance bound covering
// at least frac of the dependences: the smallest bound whose CDF is at
// least frac. The cumulative count is compared as a fraction, as CDF
// reports it, so a frac such as 0.07 is met by exactly 7 of 100 (the
// product 0.07 × 100 rounds up to just over 7).
func (d *DistanceAnalyzer) Percentile(frac float64) int {
	if d.total == 0 {
		return 0
	}
	var n uint64
	for b := 0; b < distanceBuckets; b++ {
		n += d.hist[b]
		if float64(n)/float64(d.total) >= frac {
			return 1 << b
		}
	}
	return 1 << (distanceBuckets - 1)
}

// fenwick is a 1-indexed binary indexed tree over timestamps. Its size,
// len(tree)-1, is a power of two, doubled on demand.
type fenwick struct {
	tree []int
}

// newFenwick returns a tree covering [1, n], n rounded up to a power of
// two.
func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]int, 1<<bits.Len(uint(n-1))+1)}
}

// grow doubles the tree until it covers index i. In a tree of size n, a
// power of two, the new nodes n+1..2n-1 cover ranges above n, which
// hold nothing yet, and node 2n covers (0, 2n], so it starts at the
// total, which node n holds.
func (f *fenwick) grow(i int) {
	for n := len(f.tree) - 1; n < i; n *= 2 {
		f.tree = append(f.tree, make([]int, n)...)
		f.tree[2*n] = f.tree[n]
	}
}

func (f *fenwick) add(i, v int) {
	if i >= len(f.tree) {
		f.grow(i)
	}
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += v
	}
}

// sum returns the prefix sum over [1, i].
func (f *fenwick) sum(i int) int {
	if i >= len(f.tree) {
		i = len(f.tree) - 1
	}
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
