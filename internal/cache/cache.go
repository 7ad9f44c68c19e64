// Package cache models the memory hierarchy of the paper's base
// processor (Section 5.1): a non-blocking 32KB 2-way L1 data cache and
// 64KB 2-way L1 instruction cache (16-byte blocks, 2-cycle hits), a
// unified 4MB 8-way L2 with 128-byte blocks and 10-cycle hits, and a
// flat main memory with a 50-cycle leading-word latency. Write buffers
// are not modelled: a store allocates its line and costs no cycles.
//
// The model is latency-oriented: each access walks the hierarchy once,
// updates replacement state, and returns the total access latency in
// cycles. Bandwidth contention inside a level is not modelled (the
// pipeline models port contention at the load/store scheduler instead),
// matching the level of detail timing studies of this era used.
package cache

// Config shapes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// BlockBytes is the line size (power of two).
	BlockBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access time in cycles on a hit.
	HitLatency int
}

// line is one cache line's tag state.
type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64
}

// Cache is one set-associative, write-back, write-allocate cache level
// with LRU replacement.
type Cache struct {
	cfg        Config
	sets       int
	blockShift uint
	lines      []line
	clock      uint64

	// Stats
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// New returns a cache for the configuration. It panics on non-power-of-2
// geometry, which indicates a configuration bug.
func New(cfg Config) *Cache {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	if cfg.Ways <= 0 || cfg.SizeBytes%(cfg.BlockBytes*cfg.Ways) != 0 {
		panic("cache: size must divide into ways*block")
	}
	sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.BlockBytes {
		shift++
	}
	return &Cache{cfg: cfg, sets: sets, blockShift: shift, lines: make([]line, sets*cfg.Ways)}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(addr uint32) ([]line, uint32) {
	block := addr >> c.blockShift
	idx := int(block) & (c.sets - 1)
	return c.lines[idx*c.cfg.Ways : (idx+1)*c.cfg.Ways], block
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// whether the access hit and, on miss, whether a dirty victim was evicted
// (requiring a writeback).
func (c *Cache) Access(addr uint32, write bool) (hit, dirtyEvict bool) {
	c.Accesses++
	set, block := c.set(addr)
	c.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			return true, false
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.Misses++
	if set[victim].valid {
		c.Evictions++
		dirtyEvict = set[victim].dirty
		if dirtyEvict {
			c.Writeback++
		}
	}
	set[victim] = line{tag: block, valid: true, dirty: write, lru: c.clock}
	return false, dirtyEvict
}

// Contains reports whether addr is resident, without touching LRU state.
func (c *Cache) Contains(addr uint32) bool {
	set, block := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy is the full Section 5.1 memory system.
type Hierarchy struct {
	L1D *Cache
	L1I *Cache
	L2  *Cache

	memLatency   int // leading word from main memory
	l2ExtraWord  int // per additional word latency at L2
	memExtraWord int
}

// NewHierarchy returns the paper's memory system.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1D: New(Config{SizeBytes: 32 << 10, BlockBytes: 16, Ways: 2, HitLatency: 2}),
		L1I: New(Config{SizeBytes: 64 << 10, BlockBytes: 16, Ways: 2, HitLatency: 2}),
		L2:  New(Config{SizeBytes: 4 << 20, BlockBytes: 128, Ways: 8, HitLatency: 10}),

		memLatency:   50,
		l2ExtraWord:  1,
		memExtraWord: 2,
	}
}

// LoadLatency performs a data load at addr and returns its latency.
func (h *Hierarchy) LoadLatency(addr uint32) int {
	return h.access(h.L1D, addr, false)
}

// WriteLatency performs a data store at addr and returns its latency.
// Stores write-allocate, so a store that misses brings its line in as a
// load would; the timing model charges the store none of the latency
// (DESIGN.md §7).
func (h *Hierarchy) WriteLatency(addr uint32) int {
	return h.access(h.L1D, addr, true)
}

// FetchLatency performs an instruction fetch at addr and returns its
// latency.
func (h *Hierarchy) FetchLatency(addr uint32) int {
	return h.access(h.L1I, addr, false)
}

func (h *Hierarchy) access(l1 *Cache, addr uint32, write bool) int {
	lat := l1.Config().HitLatency
	hit, _ := l1.Access(addr, write)
	if hit {
		return lat
	}
	lat += h.L2.Config().HitLatency
	l2hit, _ := h.L2.Access(addr, write)
	if l2hit {
		// Additional words of the L1 block from L2.
		lat += (l1.Config().BlockBytes/4 - 1) * h.l2ExtraWord / 4
		return lat
	}
	lat += h.memLatency
	lat += (l1.Config().BlockBytes/4 - 1) * h.memExtraWord / 4
	return lat
}
