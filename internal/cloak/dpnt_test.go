package cloak

import "testing"

func TestConfidence1Bit(t *testing.T) {
	var c confidence
	if c.allows(NonAdaptive1Bit) {
		t.Error("allows before detection")
	}
	c.onDetected()
	if !c.allows(NonAdaptive1Bit) {
		t.Error("does not allow after detection")
	}
	c.onWrong()
	if !c.allows(NonAdaptive1Bit) {
		t.Error("1-bit predictor must be non-adaptive (never disabled)")
	}
}

func TestConfidence2Bit(t *testing.T) {
	var c confidence
	c.onDetected()
	if !c.allows(Adaptive2Bit) {
		t.Fatal("cloaking must be enabled as soon as a dependence is detected")
	}
	c.onWrong()
	if c.allows(Adaptive2Bit) {
		t.Fatal("allows immediately after misprediction")
	}
	c.onCorrect()
	if c.allows(Adaptive2Bit) {
		t.Fatal("allows after only one correct prediction")
	}
	c.onCorrect()
	if !c.allows(Adaptive2Bit) {
		t.Fatal("two correct predictions must re-enable use")
	}
}

func TestConfidenceRedetectionDoesNotShortCircuit(t *testing.T) {
	// After a misprediction, the dependence will keep being *detected*
	// every instance; that must not bypass the two-correct requirement.
	var c confidence
	c.onDetected()
	c.onWrong()
	c.onDetected()
	if c.allows(Adaptive2Bit) {
		t.Error("re-detection re-enabled use without two corrects")
	}
}

func TestConfidenceSaturates(t *testing.T) {
	var c confidence
	c.onDetected()
	for i := 0; i < 10; i++ {
		c.onCorrect()
	}
	c.onWrong()
	c.onCorrect()
	c.onCorrect()
	if !c.allows(Adaptive2Bit) {
		t.Error("counter did not saturate correctly")
	}
}

func TestDPNTAssignsSharedSynonym(t *testing.T) {
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: 40, SinkPC: 80})
	s1, ok1 := d.Synonym(40)
	s2, ok2 := d.Synonym(80)
	if !ok1 || !ok2 || s1 != s2 {
		t.Fatalf("synonyms %d(%v) %d(%v)", s1, ok1, s2, ok2)
	}
}

func TestDPNTRoles(t *testing.T) {
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 40, SinkPC: 80})
	src, ok := d.Lookup(40)
	if !ok || !src.Producer || src.Consumer || src.ConsumerShadow {
		t.Errorf("source prediction = %+v, %v", src, ok)
	}
	if !d.ProducerIsLoad(40) {
		t.Error("RAR source not marked as load producer")
	}
	snk, ok := d.Lookup(80)
	if !ok || !snk.Consumer || snk.Producer {
		t.Errorf("sink prediction = %+v, %v", snk, ok)
	}

	d2 := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d2.RecordDependence(Dependence{Kind: DepRAW, SourcePC: 40, SinkPC: 80})
	if d2.ProducerIsLoad(40) {
		t.Error("RAW source wrongly marked as load producer")
	}
}

func TestDPNTJoinExistingGroup(t *testing.T) {
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 40, SinkPC: 80})
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 40, SinkPC: 120})
	s1, _ := d.Synonym(40)
	s3, _ := d.Synonym(120)
	if s1 != s3 {
		t.Errorf("new sink joined group %d, want %d", s3, s1)
	}
}

// TestDPNTIncrementalMergePaperExample replays the Section 5.1 example:
// ST1 A, LD1 A, ST2 B, LD2 B, ST1 C, LD2 C. When (ST1, LD2) is detected
// both already carry different synonyms; the Chrysos/Emer policy replaces
// the larger synonym only for the instruction at hand, and the bias
// eventually converges the whole group.
func TestDPNTIncrementalMergePaperExample(t *testing.T) {
	const st1, ld1, st2, ld2 = 4, 8, 12, 16
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld1}) // synonym X
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st2, SinkPC: ld2}) // synonym Y > X
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld2}) // merge case
	if d.Merges() != 1 {
		t.Fatalf("merges = %d", d.Merges())
	}
	x, _ := d.Synonym(st1)
	y, _ := d.Synonym(ld2)
	if x != y {
		t.Fatalf("merge did not unify the colliding pair: %d vs %d", x, y)
	}
	// LD2 previously had the larger synonym, so it must have adopted X;
	// ST2 still has Y (incremental: only the instruction at hand changes).
	if s, _ := d.Synonym(st2); s == x {
		t.Error("incremental merge rewrote a third instruction")
	}
	// Convergence: a later (ST2, LD2) detection now merges ST2 down too.
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st2, SinkPC: ld2})
	if s, _ := d.Synonym(st2); s != x {
		t.Errorf("bias did not converge ST2: %d, want %d", s, x)
	}
}

func TestDPNTFullMergeRewritesAll(t *testing.T) {
	const st1, ld1, st2, ld2 = 4, 8, 12, 16
	d := NewDPNT(0, 0, Adaptive2Bit, MergeFull)
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld1})
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st2, SinkPC: ld2})
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld2})
	want, _ := d.Synonym(st1)
	for _, pc := range []uint32{st1, ld1, st2, ld2} {
		if s, _ := d.Synonym(pc); s != want {
			t.Errorf("pc %d has synonym %d, want %d (full merge must rewrite all)", pc, s, want)
		}
	}
}

func TestDPNTNeverMergeKeepsGroups(t *testing.T) {
	const st1, ld1, st2, ld2 = 4, 8, 12, 16
	d := NewDPNT(0, 0, Adaptive2Bit, MergeNever)
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld1})
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st2, SinkPC: ld2})
	d.RecordDependence(Dependence{Kind: DepRAW, SourcePC: st1, SinkPC: ld2})
	a, _ := d.Synonym(st1)
	b, _ := d.Synonym(ld2)
	if a == b {
		t.Error("never-merge policy merged")
	}
}

func TestDPNTVerifyConsumerDrivesConfidence(t *testing.T) {
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 40, SinkPC: 80})
	d.VerifyConsumer(80, false)
	p, _ := d.Lookup(80)
	if p.Consumer || !p.ConsumerShadow {
		t.Fatalf("after wrong: %+v (want shadow only)", p)
	}
	d.VerifyConsumer(80, true)
	d.VerifyConsumer(80, true)
	p, _ = d.Lookup(80)
	if !p.Consumer {
		t.Fatalf("after two corrects: %+v (want usable again)", p)
	}
}

func TestDPNTFiniteEviction(t *testing.T) {
	d := NewDPNT(1, 2, Adaptive2Bit, MergeIncremental) // 2 entries total
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 4, SinkPC: 8})
	d.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 12, SinkPC: 16}) // evicts 4 and 8
	if _, ok := d.Synonym(4); ok {
		t.Error("entry 4 survived eviction in a 2-entry DPNT")
	}
	if _, ok := d.Synonym(16); !ok {
		t.Error("fresh entry missing")
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestDPNTLookupUnknownPC(t *testing.T) {
	d := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	if _, ok := d.Lookup(4); ok {
		t.Error("unknown PC predicted")
	}
	d.VerifyConsumer(4, true) // must not panic or allocate
	if d.Len() != 0 {
		t.Error("VerifyConsumer allocated")
	}
}

func TestSynonymFileReadWrite(t *testing.T) {
	f := NewSynonymFile(0, 0)
	if _, ok := f.Read(1); ok {
		t.Error("empty file returned an entry")
	}
	f.Allocate(1)
	e, ok := f.Read(1)
	if !ok || e.Full {
		t.Errorf("allocated entry = %+v, %v (want empty)", e, ok)
	}
	f.Write(1, 42, DepRAR, 100)
	e, ok = f.Read(1)
	if !ok || !e.Full || e.Value != 42 || e.Kind != DepRAR || e.WriterPC != 100 {
		t.Errorf("entry = %+v", e)
	}
	// Overwrite by a store producer.
	f.Write(1, 43, DepRAW, 200)
	e, _ = f.Read(1)
	if e.Value != 43 || e.Kind != DepRAW {
		t.Errorf("after overwrite: %+v", e)
	}
}

func TestSynonymFileAllocateClearsFull(t *testing.T) {
	f := NewSynonymFile(0, 0)
	f.Write(1, 42, DepRAR, 100)
	f.Allocate(1)
	if e, _ := f.Read(1); e.Full {
		t.Error("Allocate did not clear the full bit")
	}
}

func TestSynonymFileEviction(t *testing.T) {
	f := NewSynonymFile(1, 2)
	f.Write(1, 10, DepRAR, 4)
	f.Write(2, 20, DepRAR, 8)
	f.Write(3, 30, DepRAR, 12) // evicts synonym 1 (LRU)
	if _, ok := f.Read(1); ok {
		t.Error("LRU synonym survived")
	}
	if e, ok := f.Read(3); !ok || e.Value != 30 {
		t.Error("newest synonym missing")
	}
}

func TestMergeKindStrings(t *testing.T) {
	if MergeIncremental.String() != "incremental" || MergeFull.String() != "full" || MergeNever.String() != "never" {
		t.Error("merge kind strings wrong")
	}
	if NonAdaptive1Bit.String() != "1-bit" || Adaptive2Bit.String() != "2-bit" {
		t.Error("conf kind strings wrong")
	}
}

func TestSRTInstallLookup(t *testing.T) {
	srt := NewSRT(0, 0)
	if _, ok := srt.Lookup(1); ok {
		t.Error("empty SRT resolved a synonym")
	}
	srt.Install(1, 100, 7)
	tag, ok := srt.Lookup(1)
	if !ok || tag != 100 {
		t.Errorf("Lookup = %d, %v", tag, ok)
	}
}

func TestSRTNewerProducerWins(t *testing.T) {
	srt := NewSRT(0, 0)
	srt.Install(1, 100, 7)
	srt.Install(1, 200, 9) // a newer in-flight producer
	if tag, _ := srt.Lookup(1); tag != 200 {
		t.Errorf("tag = %d, want 200", tag)
	}
	// Releasing the *old* owner must not kill the newer entry.
	srt.Release(1, 7)
	if _, ok := srt.Lookup(1); !ok {
		t.Error("stale release dropped the live entry")
	}
	srt.Release(1, 9)
	if _, ok := srt.Lookup(1); ok {
		t.Error("owner release did not drop the entry")
	}
}

func TestSRTLen(t *testing.T) {
	srt := NewSRT(0, 0)
	srt.Install(1, 10, 1)
	srt.Install(2, 20, 2)
	if srt.Len() != 2 {
		t.Errorf("len = %d", srt.Len())
	}
	srt.Release(2, 2)
	if srt.Len() != 1 {
		t.Errorf("len after release = %d", srt.Len())
	}
}

func TestSRTFiniteEviction(t *testing.T) {
	srt := NewSRT(1, 2)
	srt.Install(1, 10, 1)
	srt.Install(2, 20, 2)
	srt.Install(3, 30, 3) // evicts LRU (synonym 1)
	if _, ok := srt.Lookup(1); ok {
		t.Error("evicted synonym still resolves")
	}
	if tag, ok := srt.Lookup(3); !ok || tag != 30 {
		t.Error("newest synonym lost")
	}
}
