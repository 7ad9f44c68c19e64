package workload

import (
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/locality"
	"rarpred/internal/vpred"
)

// shape captures a workload's dependence signature at the paper's
// accuracy-study configuration.
type shape struct {
	loads                 uint64
	depRAW, depRAR        float64 // detection fractions (128-entry DDT)
	covRAW, covRAR        float64 // coverage fractions (2-bit adaptive)
	misp                  float64
	valueLocal, addrLocal float64
	vpCorrect             float64
	rarLocality1          float64
	sinkLoads             uint64
}

func measure(t *testing.T, abbrev string) shape {
	t.Helper()
	w, ok := ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("unknown workload %s", abbrev)
	}
	engine := cloak.New(cloak.DefaultConfig())
	vp := vpred.NewLastValue(vpred.DefaultEntries)
	vloc := locality.NewLastMap()
	aloc := locality.NewLastMap()
	rloc := locality.NewRARLocality(0)
	var vpCorrect uint64

	s := funcsim.New(w.Assemble(12))
	s.OnLoad = func(e funcsim.MemEvent) {
		engine.Load(e.PC, e.Addr, e.Value)
		if _, ok := vp.Access(e.PC, e.Value); ok {
			vpCorrect++
		}
		vloc.Observe(e.PC, e.Value)
		aloc.Observe(e.PC, e.Addr)
		rloc.Load(e.PC, e.Addr)
	}
	s.OnStore = func(e funcsim.MemEvent) {
		engine.Store(e.PC, e.Addr, e.Value)
		rloc.Store(e.PC, e.Addr)
	}
	if err := s.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	st := engine.Stats()
	frac := func(x uint64) float64 { return float64(x) / float64(st.Loads) }
	return shape{
		loads:  st.Loads,
		depRAW: frac(st.LoadsWithRAW), depRAR: frac(st.LoadsWithRAR),
		covRAW: frac(st.CorrectRAW), covRAR: frac(st.CorrectRAR),
		misp:       frac(st.Mispredicted()),
		valueLocal: vloc.Fraction(), addrLocal: aloc.Fraction(),
		vpCorrect:    frac(vpCorrect),
		rarLocality1: rloc.Locality(1),
		sinkLoads:    rloc.SinkLoads(),
	}
}

// TestComLikeIsRAWOnly: 129.compress's signature — a hash/RMW stream
// with essentially no load-load sharing.
func TestComLikeIsRAWOnly(t *testing.T) {
	s := measure(t, "com")
	if s.depRAR > 0.01 {
		t.Errorf("com depRAR = %.3f, want ~0", s.depRAR)
	}
	if s.covRAW < 0.25 {
		t.Errorf("com covRAW = %.3f, want > 0.25", s.covRAW)
	}
	if s.sinkLoads > s.loads/100 {
		t.Errorf("com has %d RAR sinks out of %d loads", s.sinkLoads, s.loads)
	}
}

// TestHydLikeIsVPShowcase: 104.hydro2d — huge value locality from the
// constant gas coefficients, all coverage through RAR.
func TestHydLikeIsVPShowcase(t *testing.T) {
	s := measure(t, "hyd")
	if s.covRAW > 0.01 {
		t.Errorf("hyd covRAW = %.3f, want ~0 (no store->load streams)", s.covRAW)
	}
	if s.covRAR < 0.3 {
		t.Errorf("hyd covRAR = %.3f", s.covRAR)
	}
	if s.valueLocal < 0.6 {
		t.Errorf("hyd value locality = %.3f, want > 0.6", s.valueLocal)
	}
	if s.vpCorrect < s.covRAR {
		t.Errorf("hyd VP (%.3f) should beat cloaking (%.3f)", s.vpCorrect, s.covRAR)
	}
}

// TestFpLikeAnomaly: 145.fpppp — near-total address locality, part of it
// without a visible dependence (the Figure 7a callout), plus the suite's
// densest combined coverage.
func TestFpLikeAnomaly(t *testing.T) {
	s := measure(t, "fp*")
	if s.addrLocal < 0.95 {
		t.Errorf("fp* address locality = %.3f, want ~1 (fixed offsets)", s.addrLocal)
	}
	if s.depRAW+s.depRAR > 0.9 {
		t.Errorf("fp* dependences all visible (%.3f); the cold set should exceed the DDT",
			s.depRAW+s.depRAR)
	}
	if s.covRAW+s.covRAR < 0.5 {
		t.Errorf("fp* coverage = %.3f, want > 0.5", s.covRAW+s.covRAR)
	}
}

// TestVorLikeIsRAWDominant: 147.vortex — the write-then-validate object
// store, the suite's strongest RAW coverage.
func TestVorLikeIsRAWDominant(t *testing.T) {
	s := measure(t, "vor")
	if s.covRAW < 0.3 {
		t.Errorf("vor covRAW = %.3f", s.covRAW)
	}
	if s.covRAW < s.covRAR {
		t.Errorf("vor should be RAW-dominant: %.3f vs %.3f", s.covRAW, s.covRAR)
	}
}

// TestM88LikeDoubleFetch: the interpreter's re-fetch gives a strong RAR
// stream next to the regs-array RAW stream.
func TestM88LikeDoubleFetch(t *testing.T) {
	s := measure(t, "m88")
	if s.covRAR < 0.2 {
		t.Errorf("m88 covRAR = %.3f (double-fetch should cover)", s.covRAR)
	}
	if s.covRAW < 0.08 {
		t.Errorf("m88 covRAW = %.3f (cycle counter RMW should cover)", s.covRAW)
	}
}

// TestClassAggregates: the Figure 5/6 class split — integer codes lean
// RAW, floating-point codes lean RAR; both classes keep adaptive
// misspeculation low.
func TestClassAggregates(t *testing.T) {
	sumInt, sumFP := shape{}, shape{}
	nInt, nFP := 0, 0
	for _, w := range All() {
		s := measure(t, w.Abbrev)
		if w.Class == Int {
			sumInt.covRAW += s.covRAW
			sumInt.covRAR += s.covRAR
			sumInt.misp += s.misp
			nInt++
		} else {
			sumFP.covRAW += s.covRAW
			sumFP.covRAR += s.covRAR
			sumFP.misp += s.misp
			nFP++
		}
	}
	intRAW, intRAR := sumInt.covRAW/float64(nInt), sumInt.covRAR/float64(nInt)
	fpRAW, fpRAR := sumFP.covRAW/float64(nFP), sumFP.covRAR/float64(nFP)

	if intRAW <= fpRAW {
		t.Errorf("INT RAW coverage (%.3f) should exceed FP's (%.3f)", intRAW, fpRAW)
	}
	if fpRAR <= fpRAW {
		t.Errorf("FP should be RAR-dominant: RAR %.3f vs RAW %.3f", fpRAR, fpRAW)
	}
	// The paper's headline: RAR adds roughly +20% (INT) / +30% (FP).
	if intRAR < 0.10 || fpRAR < 0.15 {
		t.Errorf("RAR coverage too thin: INT %.3f, FP %.3f", intRAR, fpRAR)
	}
	if m := sumInt.misp / float64(nInt); m > 0.05 {
		t.Errorf("INT adaptive misspeculation %.4f too high", m)
	}
	if m := sumFP.misp / float64(nFP); m > 0.02 {
		t.Errorf("FP adaptive misspeculation %.4f too high", m)
	}
}

// TestEveryWorkloadHasLocality: once a load has RAR dependences at all,
// its stream must be regular (the Section 2 premise).
func TestEveryWorkloadHasLocality(t *testing.T) {
	for _, w := range All() {
		s := measure(t, w.Abbrev)
		if s.sinkLoads == 0 {
			continue // compress
		}
		// go_like deliberately has the suite's widest RAR working sets
		// (nine static loads per board cell), so its locality(1) is the
		// paper-like low outlier.
		if s.rarLocality1 < 0.3 {
			t.Errorf("%s: RAR locality(1) = %.3f with %d sinks",
				w.Name, s.rarLocality1, s.sinkLoads)
		}
	}
}

// TestGccLikeChaseIsCovered: the Figure 3 idiom — the emit pass's
// next-pointer re-read must be covered, making the traversal
// collapsible under cloaking.
func TestGccLikeChaseIsCovered(t *testing.T) {
	s := measure(t, "gcc")
	if s.covRAR < 0.35 {
		t.Errorf("gcc covRAR = %.3f; the emit-pass re-reads should dominate", s.covRAR)
	}
	if s.misp > 0.01 {
		t.Errorf("gcc misp = %.4f; the pairs are exact and should not misspeculate", s.misp)
	}
}
