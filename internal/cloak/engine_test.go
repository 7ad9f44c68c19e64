package cloak

import (
	"reflect"
	"testing"

	"rarpred/internal/trace"
)

// ldPC and stPC build distinct instruction addresses.
func pc(i int) uint32 { return uint32(i * 4) }

// TestEngineRARCloakingEndToEnd walks the Figure 3/4 scenario: two static
// loads read the same (per-iteration different) address. After the first
// iteration detects the dependence, every later iteration must cover the
// sink load with a correct RAR value.
func TestEngineRARCloakingEndToEnd(t *testing.T) {
	e := New(DefaultConfig())
	const iters = 10
	for i := 0; i < iters; i++ {
		addr := uint32(0x1000 + i*4) // a different address every iteration
		val := uint32(100 + i)
		e.Load(pc(1), addr, val) // source (e.g. foo reading l->data)
		out := e.Load(pc(2), addr, val)
		if i == 0 {
			if out.Used {
				t.Fatal("iteration 0 used a value before any detection")
			}
			if out.Dep != DepRAR {
				t.Fatalf("iteration 0 dep = %v, want RAR", out.Dep)
			}
		} else {
			if !out.Used || !out.Correct || out.Kind != DepRAR {
				t.Fatalf("iteration %d outcome = %+v", i, out)
			}
		}
	}
	st := e.Stats()
	if st.CorrectRAR != iters-1 {
		t.Errorf("CorrectRAR = %d, want %d", st.CorrectRAR, iters-1)
	}
	if st.WrongRAR != 0 || st.WrongRAW != 0 {
		t.Errorf("unexpected wrongs: %+v", st)
	}
	if st.LoadsWithRAR != iters {
		t.Errorf("LoadsWithRAR = %d, want %d", st.LoadsWithRAR, iters)
	}
}

// TestEngineRAWCloakingEndToEnd: a store/load pair through the same
// location covers from the second iteration on.
func TestEngineRAWCloakingEndToEnd(t *testing.T) {
	e := New(DefaultConfig())
	const iters = 10
	for i := 0; i < iters; i++ {
		addr := uint32(0x1000 + i*8)
		val := uint32(7 * (i + 1))
		e.Store(pc(1), addr, val)
		out := e.Load(pc(2), addr, val)
		if i > 0 && (!out.Used || !out.Correct || out.Kind != DepRAW) {
			t.Fatalf("iteration %d outcome = %+v", i, out)
		}
	}
	st := e.Stats()
	if st.CorrectRAW != iters-1 {
		t.Errorf("CorrectRAW = %d, want %d", st.CorrectRAW, iters-1)
	}
	if st.LoadsWithRAW != iters {
		t.Errorf("LoadsWithRAW = %d", st.LoadsWithRAW)
	}
}

// TestEngineRAWModeIgnoresRAR: the original mechanism must not predict
// pure load-load sharing.
func TestEngineRAWModeIgnoresRAR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeRAW
	e := New(cfg)
	for i := 0; i < 10; i++ {
		addr := uint32(0x1000 + i*4)
		e.Load(pc(1), addr, 5)
		out := e.Load(pc(2), addr, 5)
		if out.Used || out.Dep == DepRAR {
			t.Fatalf("RAW-only engine produced RAR activity: %+v", out)
		}
	}
	if st := e.Stats(); st.LoadsWithRAR != 0 || st.CorrectRAR != 0 {
		t.Errorf("stats show RAR activity: %+v", st)
	}
}

// TestEngineMisspeculationAndRecovery: when the two loads stop agreeing,
// the prediction must misspeculate once, and the 2-bit confidence must
// hold off until two correct shadow verifications rebuild it.
func TestEngineMisspeculationAndRecovery(t *testing.T) {
	e := New(DefaultConfig())
	// Train: LD1 and LD2 read the same address.
	for i := 0; i < 3; i++ {
		addr := uint32(0x1000 + i*4)
		e.Load(pc(1), addr, uint32(10+i))
		e.Load(pc(2), addr, uint32(10+i))
	}
	// Break the dependence: LD2 reads a different address and value.
	out := e.Load(pc(2), 0x9000, 999)
	if !out.Used || out.Correct {
		t.Fatalf("expected a misspeculation, got %+v", out)
	}
	// Next instances: value available and would be correct, but the
	// adaptive predictor must shadow-verify twice before using again.
	e.Load(pc(1), 0x2000, 55)
	out = e.Load(pc(2), 0x2000, 55)
	if out.Used {
		t.Fatalf("used a value one verification after a miss: %+v", out)
	}
	e.Load(pc(1), 0x2004, 56)
	out = e.Load(pc(2), 0x2004, 56)
	if out.Used {
		t.Fatalf("used a value two verifications after a miss: %+v", out)
	}
	e.Load(pc(1), 0x2008, 57)
	out = e.Load(pc(2), 0x2008, 57)
	if !out.Used || !out.Correct {
		t.Fatalf("confidence did not recover: %+v", out)
	}
	st := e.Stats()
	if st.WrongRAR != 1 {
		t.Errorf("WrongRAR = %d, want 1", st.WrongRAR)
	}
	if st.ShadowChecks != 2 {
		t.Errorf("ShadowChecks = %d, want 2", st.ShadowChecks)
	}
}

// TestEngineNonAdaptiveKeepsUsing: the 1-bit predictor keeps supplying
// values after misses (upper bound on coverage, higher misspeculation).
func TestEngineNonAdaptiveKeepsUsing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Confidence = NonAdaptive1Bit
	e := New(cfg)
	for i := 0; i < 2; i++ {
		addr := uint32(0x1000 + i*4)
		e.Load(pc(1), addr, 5)
		e.Load(pc(2), addr, 5)
	}
	out := e.Load(pc(2), 0x9000, 999) // miss
	if !out.Used || out.Correct {
		t.Fatalf("outcome %+v", out)
	}
	e.Load(pc(1), 0x2000, 7)
	out = e.Load(pc(2), 0x2000, 7)
	if !out.Used || !out.Correct {
		t.Fatalf("1-bit predictor stopped using values: %+v", out)
	}
}

// TestEngineRARCoversDistantRAW reproduces the Section 3.1 argument: a
// load with a RAW dependence on a *distant* store loses the dependence to
// DDT eviction (here: eviction pressure from intervening stores, which
// allocate entries in both modes), but a nearby RAR dependence still
// covers it.
func TestEngineRARCoversDistantRAW(t *testing.T) {
	run := func(mode Mode) Stats {
		e := New(Config{DDTCapacity: 8, Mode: mode, Confidence: Adaptive2Bit})
		for i := 0; i < 20; i++ {
			base := uint32(0x1000 + i*256)
			e.Store(pc(1), base, uint32(i)) // distant store
			// 16 unique-address stores evict it from the 8-entry DDT.
			for j := 0; j < 16; j++ {
				e.Store(pc(10+j), base+uint32(4+j*4), 0)
			}
			e.Load(pc(40), base, uint32(i)) // source load, re-reads stored value
			e.Load(pc(41), base, uint32(i)) // sink load: RAR with pc(40)
		}
		return e.Stats()
	}
	raw := run(ModeRAW)
	rar := run(ModeRAWRAR)
	if raw.Covered() != 0 {
		t.Errorf("RAW-only covered %d loads despite store eviction", raw.Covered())
	}
	if rar.CorrectRAR == 0 {
		t.Errorf("RAW+RAR did not cover the distant-RAW load via RAR: %+v", rar)
	}
	if raw.LoadsWithRAW != 0 {
		t.Errorf("store survived eviction: %+v", raw)
	}
}

// TestEngineStoreUpdatesBreakRAR: once a store intervenes, a stale RAR
// prediction produces the *stored* value only via RAW, not stale data.
func TestEngineStoreRedirectsToRAW(t *testing.T) {
	e := New(DefaultConfig())
	// Establish RAR between LD1 and LD2.
	for i := 0; i < 2; i++ {
		addr := uint32(0x1000 + i*4)
		e.Load(pc(1), addr, 5)
		e.Load(pc(2), addr, 5)
	}
	// Now a store writes the shared location before both loads.
	e.Store(pc(3), 0x3000, 42)
	e.Load(pc(1), 0x3000, 42)
	out := e.Load(pc(2), 0x3000, 42)
	// LD2's detection this instance must be RAW (store present in DDT).
	if out.Dep != DepRAW {
		t.Errorf("dep = %v, want RAW", out.Dep)
	}
}

// TestEngineSelfDependentLoadNotPredicted: one static load re-reading an
// address is not a (PC1,PC2) pair and must not train prediction.
func TestEngineSelfLoadNoTraining(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		out := e.Load(pc(1), 0x1000, 7)
		if out.Used || out.Dep != DepNone {
			t.Fatalf("iteration %d: %+v", i, out)
		}
	}
}

// TestEngineChainCollapse: LOAD1-USE, LOAD2-USE, LOAD3-USE chains where
// all three loads read the same location. LOAD1 is the producer for both
// sinks (earliest-source rule), so both get values from LOAD1's group.
func TestEngineChainCollapse(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 4; i++ {
		addr := uint32(0x1000 + i*4)
		v := uint32(i + 1)
		e.Load(pc(1), addr, v)
		o2 := e.Load(pc(2), addr, v)
		o3 := e.Load(pc(3), addr, v)
		if i > 0 {
			if !o2.Used || !o2.Correct || !o3.Used || !o3.Correct {
				t.Fatalf("iteration %d: o2=%+v o3=%+v", i, o2, o3)
			}
		}
	}
	// All three loads share one synonym (single producer/consumer graph).
	s1, ok1 := e.DPNT().Synonym(pc(1))
	s2, ok2 := e.DPNT().Synonym(pc(2))
	s3, ok3 := e.DPNT().Synonym(pc(3))
	if !ok1 || !ok2 || !ok3 || s1 != s2 || s1 != s3 {
		t.Errorf("synonyms %d %d %d (ok %v %v %v)", s1, s2, s3, ok1, ok2, ok3)
	}
}

// TestEngineSFCapacityLimitsCoverage: a tiny synonym file loses values
// between producer and consumer when many groups are live.
func TestEngineSFCapacityLimitsCoverage(t *testing.T) {
	big := New(DefaultConfig())
	small := New(Config{DDTCapacity: 0, SFSets: 1, SFWays: 1, Mode: ModeRAWRAR, Confidence: Adaptive2Bit})
	drive := func(e *Engine) Stats {
		const groups = 8
		for i := 0; i < 6; i++ {
			for g := 0; g < groups; g++ {
				addr := uint32(0x1000 + i*64 + g*8)
				v := uint32(i*100 + g)
				e.Load(pc(10+2*g), addr, v)
			}
			for g := 0; g < groups; g++ {
				addr := uint32(0x1000 + i*64 + g*8)
				v := uint32(i*100 + g)
				e.Load(pc(11+2*g), addr, v)
			}
		}
		return e.Stats()
	}
	bs := drive(big)
	ss := drive(small)
	if ss.Covered() >= bs.Covered() {
		t.Errorf("1-entry SF covered %d, unbounded covered %d", ss.Covered(), bs.Covered())
	}
}

func TestEngineStatsAccessors(t *testing.T) {
	var s Stats
	s.CorrectRAW, s.CorrectRAR = 3, 4
	s.WrongRAW, s.WrongRAR = 1, 2
	if s.Covered() != 7 || s.Mispredicted() != 3 {
		t.Errorf("accessors wrong: %+v", s)
	}
}

func TestModeString(t *testing.T) {
	if ModeRAW.String() != "RAW" || ModeRAWRAR.String() != "RAW+RAR" {
		t.Error("mode strings")
	}
}

func TestTimingConfigShapes(t *testing.T) {
	cfg := TimingConfig(ModeRAWRAR)
	if cfg.DPNTSets*cfg.DPNTWays != 8192 {
		t.Errorf("DPNT entries = %d, want 8192", cfg.DPNTSets*cfg.DPNTWays)
	}
	if cfg.SFSets*cfg.SFWays != 1024 {
		t.Errorf("SF entries = %d, want 1024", cfg.SFSets*cfg.SFWays)
	}
	if cfg.DDTCapacity != 128 {
		t.Errorf("DDT capacity = %d", cfg.DDTCapacity)
	}
}

func TestProfileCollector(t *testing.T) {
	c := NewCollector(128)
	// LD1 A, LD2 A twice; ST B, LD3 B once.
	for i := 0; i < 2; i++ {
		addr := uint32(0x1000 + i*4)
		c.Load(pc(1), addr)
		c.Load(pc(2), addr)
	}
	c.Store(pc(3), 0x2000)
	c.Load(pc(4), 0x2000)
	p := c.Profile()
	if p.Len() != 2 {
		t.Fatalf("profiled %d pairs", p.Len())
	}
	rar := Dependence{Kind: DepRAR, SourcePC: pc(1), SinkPC: pc(2)}
	raw := Dependence{Kind: DepRAW, SourcePC: pc(3), SinkPC: pc(4)}
	if p.Count(rar) != 2 || p.Count(raw) != 1 {
		t.Errorf("counts: rar=%d raw=%d", p.Count(rar), p.Count(raw))
	}
	pairs := p.Pairs(0)
	if pairs[0] != rar {
		t.Errorf("most frequent first: %+v", pairs)
	}
	if got := p.Pairs(2); len(got) != 1 || got[0] != rar {
		t.Errorf("threshold filter: %+v", got)
	}
}

// TestStaticEngineCoversProfiledPairs: the software-guided engine covers
// the profiled stream immediately (no hardware warmup), but cannot learn
// pairs outside the profile.
func TestStaticEngineCoversProfiledPairs(t *testing.T) {
	profile := NewProfile()
	profile.Record(Dependence{Kind: DepRAR, SourcePC: pc(1), SinkPC: pc(2)})
	e := NewStaticEngine(DefaultConfig(), profile, 1)

	// Covered from the very first re-encounter (hardware needs one
	// detection round first).
	e.Load(pc(1), 0x1000, 7)
	out := e.Load(pc(2), 0x1000, 7)
	if !out.Used || !out.Correct {
		t.Fatalf("profiled pair not covered immediately: %+v", out)
	}

	// An unprofiled pair never trains: detection is disabled.
	for i := 0; i < 5; i++ {
		addr := uint32(0x4000 + i*4)
		e.Load(pc(8), addr, 9)
		out := e.Load(pc(9), addr, 9)
		if out.Used || out.Dep != DepNone {
			t.Fatalf("software-guided engine learned an unprofiled pair: %+v", out)
		}
	}
}

// TestStaticVsHardwareCoverage: on a stable stream, software-guided
// coverage approaches hardware coverage (it even wins the warmup
// instances); with an empty profile it covers nothing.
func TestStaticVsHardwareCoverage(t *testing.T) {
	drive := func(e *Engine) Stats {
		for i := 0; i < 50; i++ {
			addr := uint32(0x1000 + i*4)
			e.Load(pc(1), addr, uint32(i))
			e.Load(pc(2), addr, uint32(i))
		}
		return e.Stats()
	}
	// Profile pass.
	c := NewCollector(128)
	for i := 0; i < 50; i++ {
		addr := uint32(0x1000 + i*4)
		c.Load(pc(1), addr)
		c.Load(pc(2), addr)
	}
	static := drive(NewStaticEngine(DefaultConfig(), c.Profile(), 1))
	hardware := drive(New(DefaultConfig()))
	if static.Covered() < hardware.Covered() {
		t.Errorf("software-guided covered %d, hardware %d (static should win warmup)",
			static.Covered(), hardware.Covered())
	}
	empty := drive(NewStaticEngine(DefaultConfig(), NewProfile(), 1))
	if empty.Covered() != 0 {
		t.Errorf("empty profile covered %d", empty.Covered())
	}
}

// refEngine is the engine's step written against the tables' public
// methods, one probe per call, as the engine did before it reused the
// DPNT entry and the synonym-file line its first probes found. It is
// the reference that reuse must match, in bounded tables too, where a
// skipped probe is a skipped LRU touch.
type refEngine struct {
	det   Detector
	dpnt  *DPNT
	sf    *SynonymFile
	stats Stats
}

func newRefEngine(cfg Config) *refEngine {
	return &refEngine{
		det:  newDetector(cfg, false, true),
		dpnt: NewDPNT(cfg.DPNTSets, cfg.DPNTWays, cfg.Confidence, cfg.Merge),
		sf:   NewSynonymFile(cfg.SFSets, cfg.SFWays),
	}
}

func (r *refEngine) store(pc, addr, value uint32) {
	r.stats.Stores++
	if p, ok := r.dpnt.Lookup(pc); ok && p.Producer {
		r.sf.Write(p.Synonym, value, DepRAW, pc)
	}
	r.det.Store(addr, pc)
}

func (r *refEngine) load(pc, addr, value uint32) LoadOutcome {
	r.stats.Loads++
	p, ok := r.dpnt.Lookup(pc)
	dep, _ := r.det.Load(addr, pc)
	var out LoadOutcome
	if ok && (p.Consumer || p.ConsumerShadow) {
		if entry, resident := r.sf.Read(p.Synonym); resident && entry.Full {
			correct := entry.Value == value
			if p.Consumer {
				out = LoadOutcome{Used: true, Correct: correct, Kind: entry.Kind}
				used, right, wrong := &r.stats.UsedRAW, &r.stats.CorrectRAW, &r.stats.WrongRAW
				if entry.Kind == DepRAR {
					used, right, wrong = &r.stats.UsedRAR, &r.stats.CorrectRAR, &r.stats.WrongRAR
				}
				*used++
				if correct {
					*right++
				} else {
					*wrong++
				}
			} else {
				r.stats.ShadowChecks++
			}
			r.dpnt.VerifyConsumer(pc, correct)
		} else {
			r.stats.NoValue++
		}
	}
	if dep.Kind != DepNone {
		out.Dep = dep.Kind
		if dep.Kind == DepRAW {
			r.stats.LoadsWithRAW++
		} else {
			r.stats.LoadsWithRAR++
		}
		r.dpnt.RecordDependence(dep)
	}
	if ok && p.Producer {
		r.sf.Write(p.Synonym, value, DepRAR, pc)
	}
	return out
}

// chunkSink is a trace.Sink that calls f once per chunk.
type chunkSink func()

func (f chunkSink) WalkChunk([]uint8, []uint32, []uint32, []uint32) { f() }

// TestEngineMatchesOneProbePerCallReference: Engine.Load,
// Engine.DecideLoad and a bank engine report, load by load, what the
// one-probe-per-call reference reports, with unbounded tables and with
// tiny bounded ones that evict constantly. Each Decision, the inline
// engine's and the bank's column alike, carries the reference's
// prediction from before the access and, for a load, its outcome.
func TestEngineMatchesOneProbePerCallReference(t *testing.T) {
	var cfgs []Config
	for _, edit := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.DPNTSets, c.DPNTWays, c.SFSets, c.SFWays = 4, 2, 2, 2 },
		func(c *Config) {
			c.DPNTSets, c.DPNTWays, c.SFSets, c.SFWays, c.Confidence = 8, 1, 4, 1, NonAdaptive1Bit
		},
		func(c *Config) { c.DPNTSets, c.DPNTWays, c.SFSets, c.SFWays, c.Mode = 2, 4, 1, 3, ModeRAW },
	} {
		cfg := DefaultConfig()
		edit(&cfg)
		cfgs = append(cfgs, cfg)
	}
	tr := randomStream(21, 40000, 40, 24, 3)
	for _, cfg := range cfgs {
		ref, load, decider := newRefEngine(cfg), New(cfg), New(cfg)
		var want, got []LoadOutcome
		var wantDecs, gotDecs, bankDecs []Decision
		b := NewBank()
		var gotBank []LoadOutcome
		b.OnLoad(cfg, func(_, _, _ uint32, out LoadOutcome) { gotBank = append(gotBank, out) })
		b.Decisions(cfg)
		// A lookup before the reference's own leaves every table as it
		// was: it touches the line the reference's lookup touches next.
		refPred := func(pc uint32) Prediction {
			p, _ := ref.dpnt.Lookup(pc)
			return p
		}
		tr.Replay(trace.SinkFuncs{
			OnLoad: func(pc, addr, value uint32) {
				pred := refPred(pc)
				out := ref.load(pc, addr, value)
				want = append(want, out)
				wantDecs = append(wantDecs, decide(pred, out))
				got = append(got, load.Load(pc, addr, value))
				gotDecs = append(gotDecs, decider.DecideLoad(pc, addr, value))
			},
			OnStore: func(pc, addr, value uint32) {
				wantDecs = append(wantDecs, decide(refPred(pc), LoadOutcome{}))
				ref.store(pc, addr, value)
				load.Store(pc, addr, value)
				gotDecs = append(gotDecs, decider.DecideStore(pc, addr, value))
			},
		}, trace.NewAddrIDs(b), chunkSink(func() {
			// The bank has walked the chunk by now: collect its column.
			bankDecs = append(bankDecs, b.Decisions(cfg)...)
		}))
		for name, e := range map[string]struct {
			outs  []LoadOutcome
			stats Stats
		}{
			"Load": {got, load.Stats()},
			"bank": {gotBank, b.Engine(cfg).Stats()},
		} {
			if !reflect.DeepEqual(e.outs, want) {
				t.Errorf("%+v: %s outcomes differ from the reference", cfg, name)
			}
			if e.stats != ref.stats {
				t.Errorf("%+v: %s stats %+v, reference %+v", cfg, name, e.stats, ref.stats)
			}
		}
		if decider.Stats() != ref.stats {
			t.Errorf("%+v: DecideLoad/DecideStore stats %+v, reference %+v", cfg, decider.Stats(), ref.stats)
		}
		for name, decs := range map[string][]Decision{"inline": gotDecs, "bank": bankDecs} {
			if !reflect.DeepEqual(decs, wantDecs) {
				t.Errorf("%+v: %s decisions differ from the reference's", cfg, name)
			}
		}
		if ref.stats.Covered() == 0 || ref.stats.Mispredicted() == 0 {
			t.Errorf("%+v: reference %+v exercises no covered and mispredicted loads", cfg, ref.stats)
		}
	}
}
