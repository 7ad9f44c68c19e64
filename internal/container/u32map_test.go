package container

import (
	"math/rand"
	"testing"
)

// lookup returns the value under k without inserting it.
func lookup[V any](m *U32Map[V], k uint32) (v V, ok bool) {
	i, ok := m.find(k)
	if !ok {
		return v, false
	}
	return m.slots[i].val, true
}

func TestU32MapBasic(t *testing.T) {
	m := NewU32Map[int](0)
	if _, ok := lookup(m, 0); ok {
		t.Error("empty map reports key 0")
	}
	// Key 0 is an ordinary key (no sentinel confusion).
	p, inserted := m.GetOrPut(0)
	if !inserted {
		t.Error("fresh GetOrPut reports existed")
	}
	*p = 10
	if v, ok := lookup(m, 0); !ok || v != 10 {
		t.Errorf("lookup(0) = %d, %v", v, ok)
	}
	if p, inserted := m.GetOrPut(0); inserted || *p != 10 {
		t.Errorf("GetOrPut of a present key = %d, %v", *p, inserted)
	}
	if m.Len() != 1 {
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
// random workload of insertions and lookups, across many growths.
func TestU32MapQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewU32Map[uint32](0)
	ref := map[uint32]uint32{}
	// A key space well under the op count forces collisions, wrap-around
	// probes and repeated growth.
	const keys = 4096
	for op := 0; op < 200000; op++ {
		k := uint32(rng.Intn(keys)) * 4 // word-aligned like real addresses
		if rng.Intn(2) == 0 {
			v := rng.Uint32()
			p, inserted := m.GetOrPut(k)
			refPrev, refExisted := ref[k]
			if inserted == refExisted || *p != refPrev {
				t.Fatalf("op %d: GetOrPut(%d) = %d,%v want %d,%v", op, k, *p, !inserted, refPrev, refExisted)
			}
			*p = v
			ref[k] = v
		} else {
			v, ok := lookup(m, k)
			refV, refOK := ref[k]
			if ok != refOK || v != refV {
				t.Fatalf("op %d: lookup(%d) = %d,%v want %d,%v", op, k, v, ok, refV, refOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != %d", op, m.Len(), len(ref))
		}
	}
	// Final full cross-check: every reference entry is present with its
	// value, and Len (checked above) rules out extra entries.
	for k, v := range ref {
		if got, ok := lookup(m, k); !ok || got != v {
			t.Fatalf("key %d: %d,%v != %d", k, got, ok, v)
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
		if v, ok := lookup(m, i); !ok || v != int(i) {
			t.Fatalf("lookup(%d) = %d, %v", i, v, ok)
		}
	}
}

func BenchmarkU32MapMixed(b *testing.B) {
	m := NewU32Map[uint32](0)
	for i := 0; i < b.N; i++ {
		k := uint32(i%4096) * 4
		p, _ := m.GetOrPut(k)
		*p = uint32(i)
		lookup(m, k)
	}
}

func BenchmarkBuiltinMapMixed(b *testing.B) {
	m := map[uint32]uint32{}
	for i := 0; i < b.N; i++ {
		k := uint32(i%4096) * 4
		m[k] = uint32(i)
		_ = m[k]
	}
}
