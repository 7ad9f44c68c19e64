package cloak

import (
	"math/rand"
	"reflect"
	"testing"

	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// bankConfigs mixes engines that share a detector (the same 128-entry
// combined DDT under other confidence, merge and DPNT settings), a split
// pair, a RAW-only pair, and two singleton table sizes.
func bankConfigs() []Config {
	var cfgs []Config
	add := func(edit func(*Config)) {
		cfg := DefaultConfig()
		edit(&cfg)
		cfgs = append(cfgs, cfg)
	}
	add(func(c *Config) {})
	add(func(c *Config) { c.Confidence = NonAdaptive1Bit })
	add(func(c *Config) { c.Merge = MergeFull })
	add(func(c *Config) { c.DPNTSets, c.DPNTWays = 16, 2 })
	add(func(c *Config) { c.SplitDDT = true })
	add(func(c *Config) { c.SplitDDT, c.Merge = true, MergeNever })
	add(func(c *Config) { c.Mode = ModeRAW })
	add(func(c *Config) { c.Mode, c.Confidence = ModeRAW, NonAdaptive1Bit })
	add(func(c *Config) { c.DDTCapacity = 8 })
	add(func(c *Config) { c.DDTCapacity, c.SFSets, c.SFWays = 0, 4, 2 })
	return cfgs
}

// bankGroups is the number of distinct detectors bankConfigs needs.
const bankGroups = 5

// bankOracle drives a bank and one independent engine per config.
type bankOracle struct {
	bank    *Bank
	engines []*Engine
}

func newBankOracle(cfgs []Config) *bankOracle {
	o := &bankOracle{bank: NewBank(cfgs...)}
	for _, cfg := range cfgs {
		o.engines = append(o.engines, New(cfg))
	}
	return o
}

func (o *bankOracle) load(pc, addr, value uint32) {
	o.bank.Load(pc, addr, value)
	for _, e := range o.engines {
		e.Load(pc, addr, value)
	}
}

func (o *bankOracle) store(pc, addr, value uint32) {
	o.bank.Store(pc, addr, value)
	for _, e := range o.engines {
		e.Store(pc, addr, value)
	}
}

func (o *bankOracle) compare(t *testing.T, what string) {
	t.Helper()
	for i, e := range o.bank.Engines() {
		if got, want := e.Stats(), o.engines[i].Stats(); got != want {
			t.Errorf("%s, config %d (%+v):\nbank:        %+v\nindependent: %+v", what, i, e.Config(), got, want)
		}
	}
}

func TestBankSharesDetectors(t *testing.T) {
	b := NewBank(bankConfigs()...)
	if len(b.shared) != bankGroups {
		t.Errorf("bank built %d detectors, want %d", len(b.shared), bankGroups)
	}
	if len(b.Engines()) != len(bankConfigs()) {
		t.Errorf("bank built %d engines, want %d", len(b.Engines()), len(bankConfigs()))
	}
}

func TestBankMatchesIndependentEngines(t *testing.T) {
	o := newBankOracle(bankConfigs())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		// Loads and stores get disjoint PC ranges, as in a real program.
		pc := uint32(rng.Intn(40))<<2 + 4
		addr := uint32(rng.Intn(48)) << 2
		value := uint32(rng.Intn(4))
		if rng.Intn(4) == 0 {
			o.store(pc+0x1000, addr, value)
		} else {
			o.load(pc, addr, value)
		}
	}
	o.compare(t, "random stream")
}

func TestBankMatchesIndependentEnginesOnWorkloads(t *testing.T) {
	for _, abbrev := range []string{"go", "gcc", "vor", "tom", "hyd", "wav"} {
		w, _ := workload.ByAbbrev(abbrev)
		tr, err := trace.RecordStream(w.Program(4), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		o := newBankOracle(bankConfigs())
		tr.Replay(trace.SinkFuncs{OnLoad: o.load, OnStore: o.store})
		o.compare(t, w.Name)
	}
}

// TestBankSelfCheck: under the package gate the shared detectors are
// built checked, and a bank pinned in always-on checking matches
// independent engines.
func TestBankSelfCheck(t *testing.T) {
	SetSelfCheck(true)
	b := NewBank(bankConfigs()...)
	SetSelfCheck(false)
	for i, s := range b.shared {
		switch det := s.det.(type) {
		case *DDT:
			if !det.sc {
				t.Errorf("shared detector %d: DDT not self-checking", i)
			}
		case *SplitDDT:
			if !det.sc {
				t.Errorf("shared detector %d: split DDT not self-checking", i)
			}
		default:
			t.Errorf("shared detector %d is %T", i, det)
		}
	}

	o := newBankOracle(bankConfigs())
	for _, e := range o.bank.Engines() {
		e.forceSelfCheckAlways()
	}
	for _, s := range o.bank.shared {
		switch det := s.det.(type) {
		case *DDT:
			det.forceWindow()
		case *SplitDDT:
			det.forceWindow()
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		pc, addr, value := uint32(rng.Intn(32))<<2, uint32(rng.Intn(20)), uint32(rng.Intn(3))
		if rng.Intn(3) == 0 {
			o.store(pc+0x1000, addr, value)
		} else {
			o.load(pc, addr, value)
		}
	}
	o.compare(t, "always-checked random stream")
}

// TestBankOneEnginePerConfig: equal configs share one engine, kept in
// first-request order, and a later config that asks for self-checking
// rebuilds its shared detector checked.
func TestBankOneEnginePerConfig(t *testing.T) {
	oneBit := DefaultConfig()
	oneBit.Confidence = NonAdaptive1Bit
	b := NewBank(DefaultConfig(), oneBit, DefaultConfig())
	es := b.Engines()
	if len(es) != 2 {
		t.Fatalf("bank built %d engines for 2 distinct configs", len(es))
	}
	if b.Engine(DefaultConfig()) != es[0] || b.Engine(oneBit) != es[1] {
		t.Error("Engine did not return the engine built for its config")
	}
	if len(b.Engines()) != 2 || len(b.shared) != 1 {
		t.Errorf("repeat requests grew the bank to %d engines, %d detectors", len(b.Engines()), len(b.shared))
	}
	if b.shared[0].det.(*DDT).sc {
		t.Fatal("detector self-checks with neither the gate nor a config asking")
	}
	checked := DefaultConfig()
	checked.SelfCheck = true
	b.Engine(checked)
	if !b.shared[0].det.(*DDT).sc {
		t.Error("a self-checking config left its shared detector unchecked")
	}
}

// TestBankListenersAndProfile: every listener receives its engine's
// outcome for each load, equal to what an independent engine reports,
// and the bank's profile of the default DDT equals a Collector's.
func TestBankListenersAndProfile(t *testing.T) {
	cfgs := bankConfigs()
	b := NewBank()
	want := make([]LoadOutcome, len(cfgs))
	calls := 0
	for i, cfg := range cfgs {
		b.OnLoad(cfg, func(pc, addr, value uint32, out LoadOutcome) {
			calls++
			if out != want[i] {
				t.Fatalf("config %d, load pc=%#x addr=%#x: listener got %+v, independent engine %+v", i, pc, addr, out, want[i])
			}
		})
	}
	profile := b.Profile(DefaultConfig())
	independent := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		independent[i] = New(cfg)
	}
	collector := NewCollector(128)
	rng := rand.New(rand.NewSource(13))
	loads := 0
	for i := 0; i < 30000; i++ {
		pc := uint32(rng.Intn(40))<<2 + 4
		addr := uint32(rng.Intn(200)) << 2
		value := uint32(rng.Intn(4))
		if rng.Intn(4) == 0 {
			for _, e := range independent {
				e.Store(pc+0x1000, addr, value)
			}
			collector.Store(pc+0x1000, addr)
			b.Store(pc+0x1000, addr, value)
			continue
		}
		for j, e := range independent {
			want[j] = e.Load(pc, addr, value)
		}
		collector.Load(pc, addr)
		b.Load(pc, addr, value)
		loads++
	}
	if calls != loads*len(cfgs) {
		t.Errorf("listeners ran %d times, want %d loads x %d configs", calls, loads, len(cfgs))
	}
	if profile.Len() == 0 || !reflect.DeepEqual(profile.pairs, collector.Profile().pairs) {
		t.Errorf("bank profile (%d pairs) differs from the collector's (%d pairs)", profile.Len(), collector.Profile().Len())
	}
}
