package trace

import (
	"errors"
	"sync"
	"testing"
)

// fakeTier is an in-memory Tier standing in for the disk store.
type fakeTier struct {
	mu      sync.Mutex
	m       map[Key]Cached
	loadErr error
	loads   int
	stores  int
}

func (f *fakeTier) Load(key Key) (Cached, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	if f.loadErr != nil {
		return nil, f.loadErr
	}
	return f.m[key], nil
}

func (f *fakeTier) Store(key Key, v Cached) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	if f.m == nil {
		f.m = make(map[Key]Cached)
	}
	f.m[key] = v
	return nil
}

func TestCacheTierHitSkipsRecording(t *testing.T) {
	c := NewCache()
	key := Key{Workload: "w", Size: 1}
	warm := buildStream(3)
	tier := &fakeTier{m: map[Key]Cached{key: warm}}
	c.SetTier(tier)

	got, err := c.Get(key, func() (*Stream, error) {
		t.Fatal("tier had the stream; record must not run")
		return nil, nil
	})
	if err != nil || got != warm {
		t.Fatalf("Get = (%p, %v), want the tier's stream %p", got, err, warm)
	}
	// Now resident in memory: the tier is not consulted again.
	before := tier.loads
	if _, err := c.Get(key, func() (*Stream, error) { return nil, errors.New("no") }); err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if tier.loads != before {
		t.Fatal("memory hit still consulted the tier")
	}
	c.CheckInvariants()
}

func TestCacheTierMissRecordsThenStores(t *testing.T) {
	c := NewCache()
	key := Key{Workload: "w", Size: 2}
	tier := &fakeTier{}
	c.SetTier(tier)

	recorded := 0
	fresh := buildStream(2)
	got, err := c.Get(key, func() (*Stream, error) { recorded++; return fresh, nil })
	if err != nil || got != fresh || recorded != 1 {
		t.Fatalf("Get = (%p, %v), recorded %d times", got, err, recorded)
	}
	if tier.stores != 1 {
		t.Fatalf("successful recording offered to tier %d times, want 1", tier.stores)
	}
	if tier.m[key] != Cached(fresh) {
		t.Fatal("tier holds something other than the recording")
	}
	c.CheckInvariants()
}

// TestCacheTierErrorFallsBackToRecording: a tier failure (corruption,
// I/O) is a miss — the cache records live and the run continues.
func TestCacheTierErrorFallsBackToRecording(t *testing.T) {
	c := NewCache()
	key := Key{Workload: "w", Size: 3}
	tier := &fakeTier{loadErr: errors.New("quarantined")}
	c.SetTier(tier)

	fresh := buildStream(2)
	got, err := c.Get(key, func() (*Stream, error) { return fresh, nil })
	if err != nil || got != fresh {
		t.Fatalf("Get under failing tier = (%p, %v), want live recording", got, err)
	}
	c.CheckInvariants()
}

// TestCacheTierFailedRecordingNotStored: a recording that errors is
// never offered to the durable tier.
func TestCacheTierFailedRecordingNotStored(t *testing.T) {
	c := NewCache()
	tier := &fakeTier{}
	c.SetTier(tier)
	boom := errors.New("recording failed")
	if _, err := c.Get(Key{Workload: "w", Size: 4}, func() (*Stream, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want the recording error", err)
	}
	if tier.stores != 0 {
		t.Fatalf("failed recording stored to tier %d times", tier.stores)
	}
	c.CheckInvariants()
}

// TestCacheTierSingleFlight: concurrent misses of one key share a single
// tier load, exactly as they share a single recording.
func TestCacheTierSingleFlight(t *testing.T) {
	c := NewCache()
	key := Key{Workload: "w", Size: 5}
	warm := buildStream(3)
	tier := &fakeTier{m: map[Key]Cached{key: warm}}
	c.SetTier(tier)

	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Get(key, func() (*Stream, error) {
				t.Error("record ran despite tier hit")
				return nil, nil
			})
			if err != nil || got != warm {
				t.Errorf("Get = (%p, %v)", got, err)
			}
		}()
	}
	wg.Wait()
	if tier.loads != 1 {
		t.Fatalf("tier loaded %d times across %d concurrent misses, want 1", tier.loads, goroutines)
	}
	c.CheckInvariants()
}

func TestCacheSetTierNilDetaches(t *testing.T) {
	c := NewCache()
	tier := &fakeTier{m: map[Key]Cached{{Workload: "w", Size: 6}: buildStream(1)}}
	c.SetTier(tier)
	c.SetTier(nil)
	recorded := 0
	if _, err := c.Get(Key{Workload: "w", Size: 6}, func() (*Stream, error) { recorded++; return buildStream(1), nil }); err != nil {
		t.Fatal(err)
	}
	if recorded != 1 || tier.loads != 0 || tier.stores != 0 {
		t.Fatalf("detached tier still in the path: %d loads, %d stores, %d recordings",
			tier.loads, tier.stores, recorded)
	}
}
