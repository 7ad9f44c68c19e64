package container

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// TestQuickAssocLRU checks the generic table against a reference model.
func TestQuickAssocLRU(t *testing.T) {
	f := func(keys []uint8) bool {
		table := NewAssoc[int](1, 4) // one set, 4 ways, pure LRU
		var ref []uint32             // most recent first
		for _, k := range keys {
			key := uint32(k % 16)
			v, _ := table.GetOrInsert(key)
			*v = int(key)
			// reference LRU update
			for i, rk := range ref {
				if rk == key {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			ref = append([]uint32{key}, ref...)
			if len(ref) > 4 {
				ref = ref[:4]
			}
			// The table must hold exactly the reference-resident keys.
			// (Collected via forEach, which does not touch LRU state —
			// a get() would perturb recency and invalidate the model.)
			got := map[uint32]bool{}
			table.ForEach(func(k uint32, _ *int) { got[k] = true })
			if len(got) != len(ref) {
				return false
			}
			for _, rk := range ref {
				if !got[rk] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAssocUnbounded(t *testing.T) {
	table := NewAssoc[int](0, 0)
	for i := uint32(0); i < 1000; i++ {
		v, inserted := table.GetOrInsert(i)
		if !inserted {
			t.Fatalf("key %d reported as existing", i)
		}
		*v = int(i)
	}
	if table.Len() != 1000 {
		t.Errorf("len = %d", table.Len())
	}
	if v := table.Get(500); v == nil || *v != 500 {
		t.Error("lost value in unbounded table")
	}
	if table.Capacity() != 0 {
		t.Error("unbounded capacity should be 0")
	}
}

func TestAssocAccessors(t *testing.T) {
	table := NewAssoc[int](6, 2) // sets round up to 8
	if table.Sets() != 8 || table.Ways() != 2 || table.Capacity() != 16 {
		t.Errorf("geometry: sets=%d ways=%d cap=%d", table.Sets(), table.Ways(), table.Capacity())
	}
	unbounded := NewAssoc[int](0, 0)
	if unbounded.Sets() != 0 || unbounded.Capacity() != 0 {
		t.Error("unbounded geometry should be zero")
	}
}

func TestAssocPeekDoesNotTouch(t *testing.T) {
	table := NewAssoc[int](1, 2)
	v, _ := table.GetOrInsert(1)
	*v = 10
	table.GetOrInsert(2)
	// Peek(1) must not refresh 1's recency.
	if got := table.Peek(1); got == nil || *got != 10 {
		t.Fatal("peek lost value")
	}
	table.GetOrInsert(3) // evicts 1 (still LRU because peek is silent)
	if table.Peek(1) != nil {
		t.Error("Peek refreshed recency")
	}
	if table.Peek(99) != nil {
		t.Error("Peek invented a value")
	}
	// Unbounded peek path.
	u := NewAssoc[int](0, 0)
	u.GetOrInsert(7)
	if u.Peek(7) == nil || u.Peek(8) != nil {
		t.Error("unbounded Peek wrong")
	}
}

func TestAssocWaysDefaulted(t *testing.T) {
	table := NewAssoc[int](4, 0) // ways < 1 treated as 1
	if table.Ways() != 1 {
		t.Errorf("ways = %d", table.Ways())
	}
}

func TestAssocGetMissReturnsNil(t *testing.T) {
	table := NewAssoc[int](2, 2)
	if table.Get(5) != nil {
		t.Error("miss returned a value")
	}
}

// TestAssocDenseKeepsValuesAcrossGrowth: an unbounded table grows by
// doubling as keys arrive out of order, and every value stored before a
// growth reads back after it; a pointer bracketed by Reserve survives
// the insertion that would have grown the table.
func TestAssocDenseKeepsValuesAcrossGrowth(t *testing.T) {
	table := NewAssoc[uint64](0, 0)
	want := map[uint32]uint64{}
	for i := uint32(0); i < 3000; i++ {
		k := i * 7919 % 5003 // every key below 5003, out of order
		v, inserted := table.GetOrInsert(k)
		if !inserted {
			t.Fatalf("key %d reported as existing", k)
		}
		*v = uint64(k)<<32 | uint64(i)
		want[k] = *v
		if i%97 == 0 {
			for k, w := range want {
				if got := table.Peek(k); got == nil || *got != w {
					t.Fatalf("after %d insertions (dense len %d): key %d lost its value", i+1, len(table.dense), k)
				}
			}
		}
	}
	if table.Len() != len(want) {
		t.Errorf("len = %d, want %d", table.Len(), len(want))
	}

	far := uint32(len(table.dense)) * 4
	table.Reserve(far)
	grown := len(table.dense)
	held, _ := table.GetOrInsert(1)
	table.GetOrInsert(far)
	*held = 42
	if len(table.dense) != grown || *table.Get(1) != 42 {
		t.Errorf("Reserve(%d) did not keep a held pointer valid across GetOrInsert(%d)", far, far)
	}
}

// TestDenseKeyPastLimitPanics: a key at DenseLimit, such as a raw data
// address passed where a dense key belongs, panics with a message
// naming it instead of allocating.
func TestDenseKeyPastLimitPanics(t *testing.T) {
	const raw = 0x1000_0040
	for name, f := range map[string]func(){
		"Grow":              func() { Grow([]int32(nil), DenseLimit) },
		"Assoc.GetOrInsert": func() { NewAssoc[int](0, 0).GetOrInsert(raw) },
		"Assoc.Reserve":     func() { NewAssoc[int](0, 0).Reserve(raw) },
		"LRU.GetOrInsert":   func() { NewLRU[int](4).GetOrInsert(raw) },
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			f()
			return "no panic"
		}()
		key := fmt.Sprintf("%#x", uint32(raw))
		if name == "Grow" {
			key = fmt.Sprintf("%#x", uint32(DenseLimit))
		}
		if !strings.Contains(msg, key) {
			t.Errorf("%s: panic %q does not name key %s", name, msg, key)
		}
	}
	// Zero-size elements: the largest table allocates nothing.
	if got := Grow([]struct{}(nil), DenseLimit-1); len(got) != DenseLimit {
		t.Errorf("Grow to the last key below the limit: len %d", len(got))
	}
}

// FuzzAssoc drives one table with arbitrary operations and checks it
// after each against a model: the bounded table against one MRU-first
// key list per set, the unbounded one against a Go map. Byte 0 picks the
// geometry: bit 4 set selects an unbounded table, otherwise bits 0-1
// give 1, 2, 4 or 8 sets and bits 2-3 one to four ways. Each following
// 2-byte group is one op: the first byte's low two bits select
// GetOrInsert, Get, Peek, or (on an unbounded table; GetOrInsert on a
// bounded one) a Reserve-bracketed pair of insertions whose first
// pointer must survive the second; the second byte is the key, spread
// out on unbounded tables so that they grow.
func FuzzAssoc(f *testing.F) {
	f.Add([]byte{0x07, 0, 1, 0, 5, 1, 1, 0, 9, 2, 1, 0, 13, 0, 17, 1, 5})
	f.Add([]byte{0x10, 0, 3, 3, 200, 1, 3, 2, 7, 0, 255, 3, 0})
	f.Add([]byte{0x0c, 0, 0, 0, 4, 0, 8, 0, 12, 0, 16, 1, 0, 0, 20, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		unbounded := data[0]&0x10 != 0
		sets, ways := 1<<(data[0]&3), int(data[0]>>2&3)+1
		if unbounded {
			sets, ways = 0, 0
		}
		table := NewAssoc[int](sets, ways)
		m := newAssocModel(table.Sets(), ways)
		for i := 1; i+1 < len(data); i += 2 {
			op, key := data[i]&3, uint32(data[i+1])
			if unbounded {
				key *= 37
			} else if op == 3 {
				op = 0 // a bounded table may evict the held entry
			}
			val := i
			switch op {
			case 0:
				v, inserted := table.GetOrInsert(key)
				wantVal, wantInserted := m.getOrInsert(key, val)
				if inserted != wantInserted || (!inserted && *v != wantVal) {
					t.Fatalf("op %d: GetOrInsert(%d) = (%d, %v), model (%d, %v)", i/2, key, *v, inserted, wantVal, wantInserted)
				}
				*v = val
				m.vals[key] = val
			case 1, 2:
				var v *int
				if op == 1 {
					v = table.Get(key)
				} else {
					v = table.Peek(key)
				}
				wantVal, ok := m.get(key, op == 1)
				if (v != nil) != ok || (ok && *v != wantVal) {
					t.Fatalf("op %d: lookup(%d, touch=%v) = %v, model (%d, %v)", i/2, key, op == 1, v, wantVal, ok)
				}
			case 3:
				// Insert key, then a key far past it, holding the first
				// pointer across the second insertion.
				far := key + 4*37*256
				table.Reserve(far)
				v, _ := table.GetOrInsert(key)
				m.getOrInsert(key, val)
				w, _ := table.GetOrInsert(far)
				m.getOrInsert(far, val+1)
				*w = val + 1
				*v = val // through the held pointer
				m.vals[key], m.vals[far] = val, val+1
			}
			m.check(t, i/2, table)
		}
	})
}

// assocModel is FuzzAssoc's model: with sets > 0, one MRU-first key list
// per set of at most ways keys; with sets == 0, only the values.
type assocModel struct {
	sets, ways int
	mru        [][]uint32
	vals       map[uint32]int
}

func newAssocModel(sets, ways int) *assocModel {
	return &assocModel{sets: sets, ways: ways, mru: make([][]uint32, sets), vals: map[uint32]int{}}
}

// touch moves key to the front of its set's list, inserting it (and
// dropping the set's LRU key) when absent; it reports whether key was
// resident.
func (m *assocModel) touch(key uint32, insert bool) bool {
	s := int(key) & (m.sets - 1)
	l := m.mru[s]
	for i, k := range l {
		if k == key {
			copy(l[1:i+1], l[:i])
			l[0] = key
			return true
		}
	}
	if insert {
		l = append([]uint32{key}, l...)
		if len(l) > m.ways {
			delete(m.vals, l[m.ways])
			l = l[:m.ways]
		}
		m.mru[s] = l
	}
	return false
}

func (m *assocModel) getOrInsert(key uint32, val int) (int, bool) {
	if m.sets > 0 {
		m.touch(key, true)
	}
	if v, ok := m.vals[key]; ok {
		return v, false
	}
	m.vals[key] = val
	return 0, true
}

func (m *assocModel) get(key uint32, touch bool) (int, bool) {
	if m.sets > 0 && touch {
		m.touch(key, false)
	}
	v, ok := m.vals[key]
	return v, ok
}

// check compares the table's resident keys and values with the model's.
func (m *assocModel) check(t *testing.T, op int, table *Assoc[int]) {
	t.Helper()
	got := map[uint32]int{}
	table.ForEach(func(k uint32, v *int) { got[k] = *v })
	if table.Len() != len(m.vals) || len(got) != len(m.vals) {
		t.Fatalf("op %d: table holds %d (Len %d) entries, model %d", op, len(got), table.Len(), len(m.vals))
	}
	for k, v := range m.vals {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("op %d: key %d: table (%d, %v), model %d", op, k, g, ok, v)
		}
	}
}
