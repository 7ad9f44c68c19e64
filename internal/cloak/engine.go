package cloak

import (
	"rarpred/internal/check"
	"rarpred/internal/container"
)

// Mode selects which dependence kinds the mechanism exploits.
type Mode uint8

const (
	// ModeRAW is the original cloaking/bypassing of Moshovos & Sohi
	// (MICRO-30): only store→load dependences are detected and predicted.
	ModeRAW Mode = iota
	// ModeRAWRAR is this paper's combined mechanism: loads are also
	// recorded in the DDT and load→load (RAR) dependences are predicted.
	ModeRAWRAR
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRAW {
		return "RAW"
	}
	return "RAW+RAR"
}

// Config parameterises an Engine. Zero sizes select unbounded structures.
type Config struct {
	// DDTCapacity bounds the dependence detection table (entries =
	// addresses). 0 is unbounded.
	DDTCapacity int

	// SplitDDT uses separate store and load tables, each of DDTCapacity
	// entries, removing the eviction anomaly of Section 5.6.2.
	SplitDDT bool

	// DPNTSets and DPNTWays shape the PC-indexed prediction table.
	// DPNTSets <= 0 models the infinite DPNT used for accuracy studies.
	DPNTSets, DPNTWays int

	// SFSets and SFWays shape the synonym file. SFSets <= 0 is unbounded.
	SFSets, SFWays int

	Mode       Mode
	Confidence ConfKind
	Merge      MergeKind
}

// DefaultConfig is the accuracy-study configuration of Section 5.3: a
// 128-entry DDT, infinite DPNT and SF, RAW+RAR mode, 2-bit adaptive
// confidence, incremental merging.
func DefaultConfig() Config {
	return Config{
		DDTCapacity: 128,
		Mode:        ModeRAWRAR,
		Confidence:  Adaptive2Bit,
		Merge:       MergeIncremental,
	}
}

// TimingConfig is the performance-study configuration of Section 5.6.1:
// 128-entry DDT, 8K 2-way DPNT, 1K 2-way synonym file.
func TimingConfig(mode Mode) Config {
	return Config{
		DDTCapacity: 128,
		DPNTSets:    4096,
		DPNTWays:    2,
		SFSets:      512,
		SFWays:      2,
		Mode:        mode,
		Confidence:  Adaptive2Bit,
		Merge:       MergeIncremental,
	}
}

// Stats aggregates engine behaviour over a run. All load counters are
// counts of dynamic (committed) loads.
type Stats struct {
	Loads  uint64
	Stores uint64

	// Detection: loads that experienced a visible dependence this
	// instance (the Figure 5 metric).
	LoadsWithRAW uint64
	LoadsWithRAR uint64

	// Prediction outcomes, attributed to the kind of the producer that
	// supplied the speculative value (the Figure 6 metrics).
	UsedRAW    uint64 // speculative value used, produced by a store
	UsedRAR    uint64 // speculative value used, produced by a load
	CorrectRAW uint64
	CorrectRAR uint64
	WrongRAW   uint64
	WrongRAR   uint64

	// ShadowChecks counts confidence-rebuilding verifications that did
	// not supply a value to the pipeline.
	ShadowChecks uint64

	// NoValue counts consumer predictions that found no full SF entry.
	NoValue uint64
}

// Covered returns the number of loads that received a correct speculative
// value (any kind).
func (s Stats) Covered() uint64 { return s.CorrectRAW + s.CorrectRAR }

// Mispredicted returns the number of loads that used a wrong speculative
// value (any kind).
func (s Stats) Mispredicted() uint64 { return s.WrongRAW + s.WrongRAR }

// LoadOutcome describes what the engine did for one dynamic load; the
// experiment harness correlates it with value/address locality and value
// prediction.
type LoadOutcome struct {
	// Dep is the dependence detected for this instance (DepNone if no
	// dependence was visible in the DDT).
	Dep DepKind
	// Used reports that a speculative value was supplied.
	Used bool
	// Correct reports that the supplied value matched memory (valid only
	// when Used).
	Correct bool
	// Kind is the producer kind of the supplied value (valid when Used).
	Kind DepKind
}

// Engine is the functional cloaking/bypassing accuracy model: it consumes
// the committed load/store stream in program order and tracks coverage
// and misspeculation exactly as Sections 5.2–5.5 measure them. The
// timing simulator uses the same DDT/DPNT/SynonymFile primitives but
// drives them from pipeline stages instead.
type Engine struct {
	cfg      Config
	detector Detector
	dpnt     *DPNT
	sf       *SynonymFile

	stats Stats

	sc     bool
	scSamp check.Sampler
}

// New returns an engine for the configuration. Its Load, Store,
// DecideLoad and DecideStore take raw addresses.
func New(cfg Config) *Engine {
	return newEngine(cfg, newDetector(cfg, SelfCheckEnabled(), true))
}

// newDetector builds the dependence detector cfg describes; sc selects
// the self-checking variant, and raw one that takes raw addresses and
// numbers them itself rather than one that takes address ids.
func newDetector(cfg Config, sc, raw bool) Detector {
	var ids *container.IDs
	if raw {
		ids = container.NewIDs()
	}
	if cfg.SplitDDT {
		s := newSplitDDTChecked(cfg.DDTCapacity, cfg.DDTCapacity, sc)
		s.ids = ids
		return s
	}
	d := newDDTChecked(cfg.DDTCapacity, cfg.Mode == ModeRAWRAR, sc)
	d.ids = ids
	return d
}

// newEngine returns an engine for cfg that detects through det; a bank
// engine has no detector of its own (det is nil).
func newEngine(cfg Config, det Detector) *Engine {
	e := &Engine{
		cfg:      cfg,
		detector: det,
		dpnt:     NewDPNT(cfg.DPNTSets, cfg.DPNTWays, cfg.Confidence, cfg.Merge),
		sf:       NewSynonymFile(cfg.SFSets, cfg.SFWays),
	}
	if SelfCheckEnabled() {
		e.sc = true
		e.scSamp = check.NewSampler(engineSweepInterval)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// DPNT exposes the prediction table (for tests).
func (e *Engine) DPNT() *DPNT { return e.dpnt }

// SF exposes the synonym file (for tests).
func (e *Engine) SF() *SynonymFile { return e.sf }

// Store processes one committed store in program order.
func (e *Engine) Store(pc, addr, value uint32) { e.DecideStore(pc, addr, value) }

// store is the engine's step for one committed store, less detection:
// Store and DecideStore record the store in the engine's detector, and a
// bank's shared detector has already recorded it for a bank engine.
func (e *Engine) store(pc, value uint32, pred Prediction, havePred bool) {
	e.stats.Stores++
	// Predict: a store marked as a producer deposits its value in the
	// synonym file so predicted consumers can name it.
	if havePred && pred.Producer {
		e.sf.Write(pred.Synonym, value, DepRAW, pc)
	}
}

// Load processes one committed load in program order and reports what the
// mechanism did for it.
func (e *Engine) Load(pc, addr, value uint32) LoadOutcome {
	// Predict: the DPNT is consulted with the state established by
	// *earlier* instances (Figure 4(b) actions 5–8).
	ent, pred, havePred := e.dpnt.lookup(pc)
	dep, _ := e.detector.Load(addr, pc)
	return e.load(pc, value, ent, pred, havePred, dep)
}

// DecideLoad is Load for a timing model: it processes one committed
// load and returns the load's Decision instead of its outcome.
func (e *Engine) DecideLoad(pc, addr, value uint32) Decision {
	ent, pred, havePred := e.dpnt.lookup(pc)
	dep, _ := e.detector.Load(addr, pc)
	return decide(pred, e.load(pc, value, ent, pred, havePred, dep))
}

// DecideStore is Store for a timing model: it processes one committed
// store and returns the store's Decision.
func (e *Engine) DecideStore(pc, addr, value uint32) Decision {
	pred, havePred := e.dpnt.Lookup(pc)
	e.store(pc, value, pred, havePred)
	// Detect (at commit): record the store; this also breaks RAR chains
	// through addr.
	e.detector.Store(addr, pc)
	return decide(pred, LoadOutcome{})
}

// Decision is an engine's verdict on one committed memory operation:
// the DPNT's prediction from before the access and, for a load, what
// the synonym file supplied. It is all a timing model reads from the
// engine, and it depends only on the committed stream and the config,
// so one engine's decisions serve every pipeline that shares its config
// (pipeline.Walk).
type Decision struct {
	// Synonym names the instruction's communication group when Producer
	// or Consumer is set.
	Synonym uint32
	// Producer: the instruction deposits its value for the group.
	Producer bool
	// Consumer: the load may obtain the group's value speculatively.
	Consumer bool
	// Used, Correct and RAR are the load's outcome (false for a store):
	// a speculative value was supplied, it matched memory, and a load,
	// not a store, produced it.
	Used, Correct, RAR bool
}

// decide builds the Decision for an access looked up as pred whose
// outcome was out (zero for a store). A lookup that found nothing
// returns the zero Prediction.
func decide(pred Prediction, out LoadOutcome) Decision {
	return Decision{
		Synonym:  pred.Synonym,
		Producer: pred.Producer,
		Consumer: pred.Consumer,
		Used:     out.Used,
		Correct:  out.Correct,
		RAR:      out.Used && out.Kind == DepRAR,
	}
}

// load is the engine's step for one committed load whose DDT probe
// found dep (Kind DepNone: no visible dependence). Load and DecideLoad
// probe the engine's own detector; a bank engine reads its shared
// detector's column. ent is the DPNT entry the lookup behind pred
// probed, when the caller has it: the consumer's confidence trains
// through it, and otherwise through a second probe. Likewise a load
// that consumes and then produces for one synonym writes through the SF
// line its read found. Neither table changes between the two accesses,
// so a reused pointer is still valid, and in a bounded table the
// skipped probe would only re-touch the set's most recent line, which
// leaves every set's LRU order as it was.
func (e *Engine) load(pc, value uint32, ent *dpntEntry, pred Prediction, havePred bool, dep Dependence) LoadOutcome {
	e.stats.Loads++
	var out LoadOutcome
	var line *SFEntry // the synonym's SF line, once the consumer read found it
	if havePred && (pred.Consumer || pred.ConsumerShadow) {
		if line = e.sf.line(pred.Synonym); line != nil && line.Full {
			correct := line.Value == value
			if pred.Consumer {
				out.Used = true
				out.Correct = correct
				out.Kind = line.Kind
				if line.Kind == DepRAR {
					e.stats.UsedRAR++
					if correct {
						e.stats.CorrectRAR++
					} else {
						e.stats.WrongRAR++
					}
				} else {
					e.stats.UsedRAW++
					if correct {
						e.stats.CorrectRAW++
					} else {
						e.stats.WrongRAW++
					}
				}
			} else {
				e.stats.ShadowChecks++
			}
			if ent != nil {
				ent.verify(correct)
			} else {
				e.dpnt.VerifyConsumer(pc, correct)
			}
		} else {
			e.stats.NoValue++
		}
	}

	// Train the DPNT with the detected dependence.
	if dep.Kind != DepNone {
		out.Dep = dep.Kind
		switch dep.Kind {
		case DepRAW:
			e.stats.LoadsWithRAW++
		case DepRAR:
			e.stats.LoadsWithRAR++
		}
		e.dpnt.RecordDependence(dep)
	}

	// Produce: a load marked as a RAR producer deposits the value it just
	// read so its predicted sinks can name it. This happens after the
	// consumer read above: a load can be the sink of one instance and the
	// source for the next.
	if havePred && pred.Producer {
		if line != nil {
			*line = SFEntry{Value: value, Full: true, Kind: DepRAR, WriterPC: pc}
		} else {
			e.sf.Write(pred.Synonym, value, DepRAR, pc)
		}
	}
	if e.sc && e.scSamp.Tick() {
		e.checkInvariants()
	}
	return out
}
