package cloak

import "rarpred/internal/trace"

// Bank runs engines over one committed stream: one engine per distinct
// config, and one detector per distinct detection setup. Detection
// happens at commit in the DDT alone: the DPNT, synonym file,
// confidence and merge policy never feed back into it. Engines whose
// configs agree on DDTCapacity, SplitDDT and Mode therefore see
// identical dependences, and one table answers for all of them.
//
// A bank is a trace.Sink that walks whole chunks: each shared detector
// first walks the chunk and writes every load's dependence into its
// column, then each engine walks the chunk, reading its detector's
// column where an engine of its own would probe a DDT. Each table thus
// stays hot for a whole chunk instead of sharing the cache with every
// other engine's tables at each event. The chunks' address column must
// hold address ids, not addresses: replay the stream through a
// trace.AddrIDs, whose ids index the shared detectors' tables directly.
//
// Several consumers can ask for the same config; they share its
// engine. A consumer that needs each load's outcome, not only the
// engine's totals, registers a listener with OnLoad; a timing model,
// which needs each access's Decision, reads a column (Decisions). Every
// request (Engine, OnLoad, Decisions, Profile) must come before the
// first chunk.
type Bank struct {
	engines   []*Engine
	byConfig  map[Config]int    // config → index into engines
	detectors []*sharedDetector // engine index → its shared detector
	listeners [][]func(pc, addr, value uint32, out LoadOutcome)
	// decisions[i] is engine i's decision column for the chunk walked
	// last, once asked for (deciding[i]).
	decisions [][]Decision
	deciding  []bool
	shared    []*sharedDetector
	byDetect  map[Config]int // detection fields only → index into shared
}

// sharedDetector is one detector of a bank and its dependence column
// for the chunk being walked.
type sharedDetector struct {
	det Detector
	// deps[i] is the dependence chunk event i found, if it is a load
	// (Kind DepNone: none visible); it holds at most one chunk and is
	// reused for every chunk.
	deps    []Dependence
	profile *Profile // records every dependence det reports, once asked for
}

// NewBank returns a bank holding an engine for each config. Equal
// configs share one engine; configs that agree on DDTCapacity,
// SplitDDT and Mode share one detector, which self-checks when the
// package gate (SetSelfCheck) was on when it was built.
func NewBank(cfgs ...Config) *Bank {
	b := &Bank{byConfig: map[Config]int{}, byDetect: map[Config]int{}}
	for _, cfg := range cfgs {
		b.add(cfg)
	}
	return b
}

// add returns the index of cfg's engine, building it on first request.
func (b *Bank) add(cfg Config) int {
	if i, ok := b.byConfig[cfg]; ok {
		return i
	}
	i := len(b.engines)
	b.byConfig[cfg] = i
	b.engines = append(b.engines, newEngine(cfg, nil))
	b.detectors = append(b.detectors, b.detector(cfg))
	b.listeners = append(b.listeners, nil)
	b.decisions = append(b.decisions, nil)
	b.deciding = append(b.deciding, false)
	return i
}

// detector returns the shared detector for cfg's detection setup,
// building it on first request.
func (b *Bank) detector(cfg Config) *sharedDetector {
	key := Config{DDTCapacity: cfg.DDTCapacity, SplitDDT: cfg.SplitDDT, Mode: cfg.Mode}
	if i, ok := b.byDetect[key]; ok {
		return b.shared[i]
	}
	s := &sharedDetector{det: newDetector(key, SelfCheckEnabled(), false)}
	b.byDetect[key] = len(b.shared)
	b.shared = append(b.shared, s)
	return s
}

// Engine returns the bank's engine for cfg, adding one if no earlier
// request named cfg. It has no detector of its own: drive it only
// through the bank.
func (b *Bank) Engine(cfg Config) *Engine { return b.engines[b.add(cfg)] }

// Engines returns the bank's engines in the order their configs were
// first requested.
func (b *Bank) Engines() []*Engine { return b.engines }

// OnLoad registers fn to receive every load after the engine for cfg
// (added if new) has processed it, with the outcome that engine
// reported; addr is the load's address id. Listeners run while their
// engine walks a chunk, so each sees the loads in recorded order.
func (b *Bank) OnLoad(cfg Config, fn func(pc, addr, value uint32, out LoadOutcome)) {
	i := b.add(cfg)
	b.listeners[i] = append(b.listeners[i], fn)
}

// Decisions returns the Decision the engine for cfg made for each event
// of the chunk walked last, in order. The first call adds the engine if
// new and has it record its decisions from then on; until a chunk is
// walked, the column is empty.
func (b *Bank) Decisions(cfg Config) []Decision {
	i := b.add(cfg)
	b.deciding[i] = true
	return b.decisions[i]
}

// Profile returns the profile of every dependence that the detector
// for cfg's detection setup reports: the profile a Collector with the
// same DDT would collect over the stream.
func (b *Bank) Profile(cfg Config) *Profile {
	s := b.detector(cfg)
	if s.profile == nil {
		s.profile = NewProfile()
	}
	return s.profile
}

// WalkChunk implements trace.Sink over a chunk whose address column
// holds address ids: every shared detector walks the chunk into its
// column, then every engine walks it in turn, hands each load's outcome
// to its listeners and, if asked, writes each event's Decision into its
// column.
func (b *Bank) WalkChunk(kinds []uint8, pcs, addrs, values []uint32) {
	n := len(kinds)
	pcs, addrs, values = pcs[:n], addrs[:n], values[:n]
	for _, s := range b.shared {
		s.detect(kinds, pcs, addrs)
	}
	for i, e := range b.engines {
		deps := b.detectors[i].deps[:n]
		fns := b.listeners[i]
		var decs []Decision
		if b.deciding[i] {
			if cap(b.decisions[i]) < n {
				b.decisions[i] = make([]Decision, n)
			}
			decs = b.decisions[i][:n]
			b.decisions[i] = decs
		}
		for j, k := range kinds {
			pc, value := pcs[j], values[j]
			ent, pred, havePred := e.dpnt.lookup(pc)
			if trace.Kind(k) != trace.KindLoad {
				e.store(pc, value, pred, havePred)
				if decs != nil {
					decs[j] = decide(pred, LoadOutcome{})
				}
				continue
			}
			out := e.load(pc, value, ent, pred, havePred, deps[j])
			if decs != nil {
				decs[j] = decide(pred, out)
			}
			for _, fn := range fns {
				fn(pc, addrs[j], value, out)
			}
		}
	}
}

// detect runs the chunk through the detector, recording each store and
// writing each load's dependence into the column.
func (s *sharedDetector) detect(kinds []uint8, pcs, addrs []uint32) {
	n := len(kinds)
	if cap(s.deps) < n {
		s.deps = make([]Dependence, n)
	}
	deps, pcs, addrs := s.deps[:n], pcs[:n], addrs[:n]
	for j, k := range kinds {
		if trace.Kind(k) != trace.KindLoad {
			s.det.Store(addrs[j], pcs[j])
			continue
		}
		dep, ok := s.det.Load(addrs[j], pcs[j])
		deps[j] = dep
		if ok && s.profile != nil {
			s.profile.Record(dep)
		}
	}
}
