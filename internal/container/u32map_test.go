package container

import (
	"math/rand"
	"testing"
)

func TestU32MapBasic(t *testing.T) {
	m := NewU32Map[int](0)
	if m.Ptr(0) != nil {
		t.Error("empty map reports key 0")
	}
	// Key 0 is an ordinary key (no sentinel confusion).
	p, inserted := m.GetOrPut(0)
	if !inserted {
		t.Error("fresh GetOrPut reports existed")
	}
	*p = 10
	if v := m.Ptr(0); v == nil || *v != 10 {
		t.Errorf("Ptr(0) = %v", v)
	}
	if p, inserted := m.GetOrPut(0); inserted || *p != 10 {
		t.Errorf("GetOrPut of a present key = %d, %v", *p, inserted)
	}
	if !m.Delete(0) {
		t.Error("Delete(0) missed")
	}
	if m.Delete(0) {
		t.Error("double Delete succeeded")
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestU32MapGetOrPut(t *testing.T) {
	m := NewU32Map[[4]uint32](0)
	p, inserted := m.GetOrPut(7)
	if !inserted {
		t.Error("first GetOrPut not inserted")
	}
	p[0] = 99
	p2, inserted := m.GetOrPut(7)
	if inserted || p2[0] != 99 {
		t.Errorf("GetOrPut lost in-place mutation: %v %v", inserted, p2[0])
	}
}

// TestU32MapQuick: the map behaves exactly like a builtin map under a
// random workload of insertions, deletes and lookups, across many
// growths and backward-shift deletions.
func TestU32MapQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewU32Map[uint32](0)
	ref := map[uint32]uint32{}
	// Small key space forces collisions, wrap-around probes and shifts.
	const keys = 512
	for op := 0; op < 200000; op++ {
		k := uint32(rng.Intn(keys)) * 4 // word-aligned like real addresses
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint32()
			p, inserted := m.GetOrPut(k)
			refPrev, refExisted := ref[k]
			if inserted == refExisted || *p != refPrev {
				t.Fatalf("op %d: GetOrPut(%d) = %d,%v want %d,%v", op, k, *p, !inserted, refPrev, refExisted)
			}
			*p = v
			ref[k] = v
		case 1:
			if m.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
				t.Fatalf("op %d: Delete(%d) disagrees", op, k)
			}
			delete(ref, k)
		case 2:
			p := m.Ptr(k)
			refV, refOK := ref[k]
			if (p != nil) != refOK || (p != nil && *p != refV) {
				t.Fatalf("op %d: Ptr(%d) = %v want %d,%v", op, k, p, refV, refOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != %d", op, m.Len(), len(ref))
		}
	}
	// Final full cross-check: every reference entry is present with its
	// value, and Len (checked above) rules out extra entries.
	for k, v := range ref {
		if p := m.Ptr(k); p == nil || *p != v {
			t.Fatalf("key %d: %v != %d", k, p, v)
		}
	}
}

func TestU32MapHint(t *testing.T) {
	m := NewU32Map[int](1000)
	if m.limit < 1000 {
		t.Errorf("hint 1000 gives limit %d; would grow immediately", m.limit)
	}
	for i := uint32(0); i < 1000; i++ {
		p, _ := m.GetOrPut(i)
		*p = int(i)
	}
	for i := uint32(0); i < 1000; i++ {
		if p := m.Ptr(i); p == nil || *p != int(i) {
			t.Fatalf("Ptr(%d) = %v", i, p)
		}
	}
}

func BenchmarkU32MapMixed(b *testing.B) {
	m := NewU32Map[uint32](0)
	for i := 0; i < b.N; i++ {
		k := uint32(i%4096) * 4
		p, _ := m.GetOrPut(k)
		*p = uint32(i)
		m.Ptr(k)
		if i%8 == 0 {
			m.Delete(k)
		}
	}
}

func BenchmarkBuiltinMapMixed(b *testing.B) {
	m := map[uint32]uint32{}
	for i := 0; i < b.N; i++ {
		k := uint32(i%4096) * 4
		m[k] = uint32(i)
		_ = m[k]
		if i%8 == 0 {
			delete(m, k)
		}
	}
}
