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

// bankOracle runs a bank and, next to it, one independent engine per
// config.
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

// replay feeds tr to the bank, which walks whole chunks of address ids
// as a pass numbers them, and event by event, with the addresses
// themselves, to every independent engine.
func (o *bankOracle) replay(tr *trace.Stream) {
	sinks := []trace.Sink{trace.NewAddrIDs(o.bank)}
	for _, e := range o.engines {
		sinks = append(sinks, engineSink(e))
	}
	tr.Replay(sinks...)
}

func (o *bankOracle) compare(t *testing.T, what string) {
	t.Helper()
	for i, e := range o.bank.Engines() {
		if got, want := e.Stats(), o.engines[i].Stats(); got != want {
			t.Errorf("%s, config %d (%+v):\nbank:        %+v\nindependent: %+v", what, i, e.Config(), got, want)
		}
	}
}

// engineSink drives e event by event.
func engineSink(e *Engine) trace.Sink {
	return trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
		OnStore: e.Store,
	}
}

// randomStream returns a sealed stream of n random events: loads on
// pcs static loads, one store in four on as many static stores (the
// two PC ranges are disjoint, as in a real program), addrs words and
// values distinct values.
func randomStream(seed int64, n, pcs, addrs, values int) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewStream()
	for i := 0; i < n; i++ {
		pc := uint32(rng.Intn(pcs))<<2 + 4
		addr := uint32(rng.Intn(addrs)) << 2
		value := uint32(rng.Intn(values))
		if rng.Intn(4) == 0 {
			tr.Append(trace.KindStore, pc+0x1000, addr, value)
		} else {
			tr.Append(trace.KindLoad, pc, addr, value)
		}
	}
	tr.Seal()
	return tr
}

// multiChunk is long enough for a stream to span three chunks.
const multiChunk = 150000

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
	tr := randomStream(11, multiChunk, 40, 48, 4)
	if tr.NumChunks() < 3 {
		t.Fatalf("random stream has %d chunks, want at least 3", tr.NumChunks())
	}
	o := newBankOracle(bankConfigs())
	o.replay(tr)
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
		o.replay(tr)
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
	o.replay(randomStream(12, 5000, 32, 20, 3))
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
// outcome for each load, in recorded order, equal to what an
// independent engine reports, and the bank's profile of the default DDT
// equals a Collector's.
func TestBankListenersAndProfile(t *testing.T) {
	cfgs := bankConfigs()
	b := NewBank()
	got := make([][]LoadOutcome, len(cfgs))
	for i, cfg := range cfgs {
		b.OnLoad(cfg, func(pc, addr, value uint32, out LoadOutcome) {
			got[i] = append(got[i], out)
		})
	}
	profile := b.Profile(DefaultConfig())
	want := make([][]LoadOutcome, len(cfgs))
	sinks := []trace.Sink{trace.NewAddrIDs(b)}
	for i, cfg := range cfgs {
		e := New(cfg)
		sinks = append(sinks, trace.SinkFuncs{
			OnLoad:  func(pc, addr, value uint32) { want[i] = append(want[i], e.Load(pc, addr, value)) },
			OnStore: e.Store,
		})
	}
	collector := NewCollector(128)
	sinks = append(sinks, trace.SinkFuncs{
		OnLoad:  func(pc, addr, _ uint32) { collector.Load(pc, addr) },
		OnStore: func(pc, addr, _ uint32) { collector.Store(pc, addr) },
	})
	tr := randomStream(13, multiChunk, 40, 200, 4)
	tr.Replay(sinks...)
	for i := range cfgs {
		if uint64(len(got[i])) != tr.Loads() {
			t.Errorf("config %d: listener ran %d times, want %d loads", i, len(got[i]), tr.Loads())
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: listener outcomes differ from the independent engine's", i)
		}
	}
	if profile.Len() == 0 || !reflect.DeepEqual(profile.pairs, collector.Profile().pairs) {
		t.Errorf("bank profile (%d pairs) differs from the collector's (%d pairs)", profile.Len(), collector.Profile().Len())
	}
}
