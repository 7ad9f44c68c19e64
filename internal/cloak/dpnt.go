package cloak

import (
	"rarpred/internal/check"
	"rarpred/internal/container"
)

// MergeKind selects what happens when a dependence is detected between
// two instructions that already carry different synonyms (Section 5.1).
type MergeKind uint8

const (
	// MergeIncremental is the Chrysos/Emer policy: replace the larger of
	// the two synonyms, and only for the instruction at hand. The bias
	// towards the smaller synonym eventually converges all members of a
	// communication group onto one synonym without associative updates.
	MergeIncremental MergeKind = iota

	// MergeFull is the original cloaking policy: pick one synonym and
	// rewrite every DPNT entry holding the other (an associative update).
	MergeFull

	// MergeNever keeps both synonyms, splitting the communication group.
	// The paper reports that always merging beats never merging; this
	// policy exists for the ablation benchmark.
	MergeNever
)

// String names the merge policy.
func (k MergeKind) String() string {
	switch k {
	case MergeIncremental:
		return "incremental"
	case MergeFull:
		return "full"
	case MergeNever:
		return "never"
	}
	return "merge?"
}

// dpntEntry is the per-static-instruction prediction state: the synonym
// naming the communication group, plus independent producer and consumer
// confidence automata (Section 3.1: "we use two predictors per entry,
// one for consumer prediction and one for producer prediction").
type dpntEntry struct {
	synonym  uint32
	hasSyn   bool
	producer confidence
	consumer confidence

	// producerIsLoad marks a RAR producer (the earliest load of a group).
	// Unlike a store, a producing load cannot be eliminated by bypassing
	// (Section 3.2).
	producerIsLoad bool
}

// DPNT is the Dependence Prediction and Naming Table: a PC-indexed table
// associating static loads and stores with synonyms and prediction
// confidence. Construct with NewDPNT; sets <= 0 models the infinite DPNT
// of Section 5.3, one entry per static instruction indexed directly by
// pc>>2 (container.Assoc's unbounded mode).
type DPNT struct {
	table *container.Assoc[dpntEntry]
	conf  ConfKind
	merge MergeKind

	nextSynonym uint32
	merges      uint64
	fullScans   uint64
}

// NewDPNT returns a DPNT with sets*ways entries (sets <= 0 for
// unbounded), the given confidence mechanism and merge policy.
func NewDPNT(sets, ways int, conf ConfKind, merge MergeKind) *DPNT {
	return &DPNT{table: container.NewAssoc[dpntEntry](sets, ways), conf: conf, merge: merge}
}

// key derives the table key from an instruction PC. PCs are word aligned
// so the low two bits carry no information.
func key(pc uint32) uint32 { return pc >> 2 }

// Merges returns how many detections hit the two-different-synonyms case.
func (t *DPNT) Merges() uint64 { return t.merges }

// Confidence returns the table's confidence mechanism.
func (t *DPNT) Confidence() ConfKind { return t.conf }

// Prediction is the result of a DPNT lookup at decode time. It has four
// fields, so the compiler keeps it in registers; a fifth would put it
// in memory on every lookup (ProducerIsLoad is a DPNT method instead).
type Prediction struct {
	Synonym uint32
	// Producer reports that the instruction is predicted to produce a
	// value for its communication group (store, or earliest RAR load).
	Producer bool
	// Consumer reports that a dependence is predicted for this load and
	// its confidence allows using a speculative value.
	Consumer bool
	// ConsumerShadow reports that a dependence is known but confidence
	// does not (yet) allow use; the engine still verifies the would-be
	// value to rebuild confidence.
	ConsumerShadow bool
}

// Lookup predicts the role of the instruction at pc. It does not allocate.
func (t *DPNT) Lookup(pc uint32) (Prediction, bool) {
	_, p, ok := t.lookup(pc)
	return p, ok
}

// lookup is Lookup that also returns the entry it probed (nil if pc has
// none), so that the engine can verify the prediction through it
// without a second probe.
func (t *DPNT) lookup(pc uint32) (*dpntEntry, Prediction, bool) {
	e := t.table.Get(key(pc))
	if e == nil || !e.hasSyn {
		return e, Prediction{}, false
	}
	p := Prediction{Synonym: e.synonym}
	if e.producer.detected {
		p.Producer = true
	}
	if e.consumer.detected {
		if e.consumer.allows(t.conf) {
			p.Consumer = true
		} else {
			p.ConsumerShadow = true
		}
	}
	if !p.Producer && !p.Consumer && !p.ConsumerShadow {
		return e, Prediction{}, false
	}
	return e, p, true
}

// ProducerIsLoad reports whether the instruction at pc was last trained
// as a RAR producer (the earliest load of a group) rather than a RAW
// (store) producer.
func (t *DPNT) ProducerIsLoad(pc uint32) bool {
	e := t.table.Get(key(pc))
	return e != nil && e.producerIsLoad
}

// RecordDependence trains the table with a detected dependence: both
// endpoints are allocated, a common synonym is established (merging per
// policy when they disagree), the source is marked as a producer and the
// sink as a consumer. It returns the group synonym after merging.
func (t *DPNT) RecordDependence(dep Dependence) uint32 {
	// src must survive the sink's insertion (unbounded tables may move
	// entries when they grow).
	t.table.Reserve(max(key(dep.SourcePC), key(dep.SinkPC)))
	src, _ := t.table.GetOrInsert(key(dep.SourcePC))
	snk, _ := t.table.GetOrInsert(key(dep.SinkPC))
	if src == snk {
		// Self dependence cannot happen per DDT construction; guard anyway.
		return src.synonym
	}

	switch {
	case !src.hasSyn && !snk.hasSyn:
		t.nextSynonym++
		src.synonym, src.hasSyn = t.nextSynonym, true
		snk.synonym, snk.hasSyn = t.nextSynonym, true
	case src.hasSyn && !snk.hasSyn:
		snk.synonym, snk.hasSyn = src.synonym, true
	case !src.hasSyn && snk.hasSyn:
		src.synonym, src.hasSyn = snk.synonym, true
	case src.synonym != snk.synonym:
		t.merges++
		switch t.merge {
		case MergeIncremental:
			// Replace the larger synonym, only for that instruction.
			m := min(src.synonym, snk.synonym)
			src.synonym, snk.synonym = m, m
		case MergeFull:
			winner := min(src.synonym, snk.synonym)
			loser := max(src.synonym, snk.synonym)
			t.fullScans++
			t.table.ForEach(func(_ uint32, e *dpntEntry) {
				if e.hasSyn && e.synonym == loser {
					e.synonym = winner
				}
			})
		case MergeNever:
			// Keep both; the sink stays in its old group.
		}
	}

	src.producer.onDetected()
	src.producerIsLoad = dep.Kind == DepRAR
	snk.consumer.onDetected()
	if check.Enabled {
		check.Assertf(src.hasSyn && snk.hasSyn, "dpnt.syn",
			"dependence %v left an endpoint without a synonym", dep)
		check.Assertf(src.synonym <= t.nextSynonym && snk.synonym <= t.nextSynonym,
			"dpnt.syn", "synonym outside issued range 1..%d", t.nextSynonym)
	}
	return snk.synonym
}

// VerifyConsumer feeds the verification outcome of a consumer prediction
// back into the confidence automaton.
func (t *DPNT) VerifyConsumer(pc uint32, correct bool) {
	if e := t.table.Get(key(pc)); e != nil {
		e.verify(correct)
	}
}

// verify is VerifyConsumer on the entry itself.
func (e *dpntEntry) verify(correct bool) {
	if correct {
		e.consumer.onCorrect()
	} else {
		e.consumer.onWrong()
	}
}

// Synonym returns the synonym currently assigned to pc, if any. Intended
// for tests and diagnostics.
func (t *DPNT) Synonym(pc uint32) (uint32, bool) {
	e := t.table.Get(key(pc))
	if e == nil || !e.hasSyn {
		return 0, false
	}
	return e.synonym, true
}

// Len returns the number of resident entries.
func (t *DPNT) Len() int { return t.table.Len() }

// SFEntry is one Synonym File record: the most recent value produced for
// a communication group, tagged with the producer's kind for RAW/RAR
// attribution of coverage and misspeculation.
type SFEntry struct {
	Value    uint32
	Full     bool
	Kind     DepKind // DepRAW if a store produced the value, DepRAR if a load
	WriterPC uint32
}

// SynonymFile is the synonym-indexed value store. sets <= 0 models an
// unbounded file, indexed directly by synonym: synonyms come from a
// counter, so they are dense.
type SynonymFile struct {
	table *container.Assoc[SFEntry]
}

// NewSynonymFile returns a synonym file with sets*ways entries.
func NewSynonymFile(sets, ways int) *SynonymFile {
	return &SynonymFile{table: container.NewAssoc[SFEntry](sets, ways)}
}

// Allocate reserves (or re-marks) the entry for syn as empty, modelling a
// predicted producer that has not yet obtained its value.
func (f *SynonymFile) Allocate(syn uint32) {
	e, _ := f.table.GetOrInsert(syn)
	*e = SFEntry{}
}

// Write deposits a produced value for syn. kind records the producer
// type: DepRAW for stores, DepRAR for loads.
func (f *SynonymFile) Write(syn, value uint32, kind DepKind, writerPC uint32) {
	e, _ := f.table.GetOrInsert(syn)
	*e = SFEntry{Value: value, Full: true, Kind: kind, WriterPC: writerPC}
}

// Read returns the entry for syn. ok reports residency; check Full before
// using the value.
func (f *SynonymFile) Read(syn uint32) (SFEntry, bool) {
	e := f.table.Get(syn)
	if e == nil {
		return SFEntry{}, false
	}
	return *e, true
}

// line is Read that returns the resident line itself (nil if none), so
// that a load that reads and then produces for the same synonym writes
// through it without a second probe.
func (f *SynonymFile) line(syn uint32) *SFEntry { return f.table.Get(syn) }

// Len returns the number of resident entries.
func (f *SynonymFile) Len() int { return f.table.Len() }
