package cloak

import "sort"

// Profile is a collected memory-dependence profile: the (source, sink)
// pairs observed in a profiling run with their occurrence counts. It
// supports the software-guided cloaking of Reinman, Calder, Tullsen,
// Tyson & Austin ("profile guided load marking", discussed in the
// paper's related work): instead of discovering dependences in hardware
// with a DDT, the compiler marks producer and consumer instructions from
// a profile, and the hardware only carries the naming (synonym) and
// value (SF) machinery.
type Profile struct {
	pairs map[Dependence]uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{pairs: make(map[Dependence]uint64)}
}

// Record adds one observed dependence instance.
func (p *Profile) Record(dep Dependence) { p.pairs[dep]++ }

// Collector wraps a detector so a profiling run can record every
// dependence it sees. Drive it like an engine: one call per committed
// access, in program order.
type Collector struct {
	profile  *Profile
	detector Detector
}

// NewCollector returns a collector using a DDT of the given capacity
// (0 = unbounded) with load recording enabled.
func NewCollector(ddtCapacity int) *Collector {
	return &Collector{
		profile:  NewProfile(),
		detector: NewDDT(ddtCapacity, true),
	}
}

// Load observes a committed load.
func (c *Collector) Load(pc, addr uint32) {
	if dep, ok := c.detector.Load(addr, pc); ok {
		c.profile.Record(dep)
	}
}

// Store observes a committed store.
func (c *Collector) Store(pc, addr uint32) {
	c.detector.Store(addr, pc)
}

// Profile returns the collected profile.
func (c *Collector) Profile() *Profile { return c.profile }

// Pairs returns the profiled dependences with at least minCount
// occurrences, most frequent first (ties broken by source then sink PC
// for determinism).
func (p *Profile) Pairs(minCount uint64) []Dependence {
	out := make([]Dependence, 0, len(p.pairs))
	for dep, n := range p.pairs {
		if n >= minCount {
			out = append(out, dep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ni, nj := p.pairs[out[i]], p.pairs[out[j]]
		if ni != nj {
			return ni > nj
		}
		if out[i].SourcePC != out[j].SourcePC {
			return out[i].SourcePC < out[j].SourcePC
		}
		return out[i].SinkPC < out[j].SinkPC
	})
	return out
}

// Count returns the occurrence count of a dependence.
func (p *Profile) Count(dep Dependence) uint64 { return p.pairs[dep] }

// Len returns the number of distinct dependences profiled.
func (p *Profile) Len() int { return len(p.pairs) }

// NewStaticEngine builds an engine whose DPNT is preloaded from the
// profile and whose hardware detection is disabled: the software-guided
// variant. Dependences with fewer than minCount profiled occurrences are
// dropped (the profile-thresholding knob of the software approach).
// The engine still verifies values and applies confidence, but it can
// never learn pairs the profile missed — the trade-off the paper's
// related-work section points at.
func NewStaticEngine(cfg Config, profile *Profile, minCount uint64) *Engine {
	// Disable runtime detection: the nil detector observes stores (for
	// API symmetry) but never reports dependences.
	e := newEngine(cfg, noDetect{})
	for _, dep := range profile.Pairs(minCount) {
		e.dpnt.RecordDependence(dep)
	}
	return e
}

// noDetect is the disabled-hardware detector of the software-guided
// variant.
type noDetect struct{}

func (noDetect) Store(addr, pc uint32)                   {}
func (noDetect) Load(addr, pc uint32) (Dependence, bool) { return Dependence{}, false }
