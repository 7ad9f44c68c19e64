package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rarpred/internal/funcsim"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// buildStream makes a deterministic, Validate-clean memory stream of n
// events.
func buildStream(n int) *trace.Stream {
	s := trace.NewStream()
	var loads, stores uint64
	rng := uint32(1)
	for i := 0; i < n; i++ {
		rng = rng*1664525 + 1013904223
		k := trace.KindLoad
		if rng&1 == 0 {
			k = trace.KindStore
			stores++
		} else {
			loads++
		}
		s.Append(k, rng&0xfffc, rng>>3, rng>>5)
	}
	s.Counts = funcsim.Counts{Insts: uint64(n) * 3, Loads: loads, Stores: stores}
	return s
}

// buildIStream makes a deterministic, Validate-clean instruction stream.
func buildIStream(insts, mems int) *trace.IStream {
	s := trace.NewIStream()
	for i := 0; i < insts; i++ {
		s.AppendInst(uint32(i%7), uint32(i+1))
	}
	for i := 0; i < mems; i++ {
		s.AppendMem(uint32(i*4), uint32(i^0x55))
	}
	s.Counts = funcsim.Counts{Insts: uint64(insts), Loads: uint64(mems)}
	return s
}

func sameStream(t *testing.T, got, want *trace.Stream) {
	t.Helper()
	if got.Len() != want.Len() || got.Loads() != want.Loads() ||
		got.Counts != want.Counts || got.Truncated != want.Truncated {
		t.Fatalf("stream header mismatch: %d/%d events, %v/%v counts",
			got.Len(), want.Len(), got.Counts, want.Counts)
	}
	gather := func(s *trace.Stream) [][4]uint32 {
		var out [][4]uint32
		s.Replay(trace.SinkFuncs{
			OnLoad:  func(pc, addr, v uint32) { out = append(out, [4]uint32{0, pc, addr, v}) },
			OnStore: func(pc, addr, v uint32) { out = append(out, [4]uint32{1, pc, addr, v}) },
		})
		return out
	}
	g, w := gather(got), gather(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("event %d: %v != %v", i, g[i], w[i])
		}
	}
}

func openTestStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStreamArtifactRoundTrip(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "rt_wl", Size: 7, MaxInsts: 1000}
	orig := buildStream(5000)
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	back, ok := v.(*trace.Stream)
	if !ok {
		t.Fatalf("Load returned %T, want *trace.Stream", v)
	}
	sameStream(t, back, orig)
	st := s.Stats()
	if st.DiskHits != 1 || st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

func TestIStreamArtifactRoundTrip(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "rt_wl", Size: 7, MaxInsts: 1000, Timing: true}
	orig := buildIStream(4000, 1500)
	if err := s.Store(key, orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := s.Load(key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	back, ok := v.(*trace.IStream)
	if !ok {
		t.Fatalf("Load returned %T, want *trace.IStream", v)
	}
	if back.Len() != orig.Len() || back.MemEvents() != orig.MemEvents() || back.Counts != orig.Counts {
		t.Fatalf("istream mismatch: %d/%d insts, %d/%d mems",
			back.Len(), orig.Len(), back.MemEvents(), orig.MemEvents())
	}
	gc, oc := back.Cursor(), orig.Cursor()
	for {
		gi, gn, gok := gc.NextInst()
		oi, on, ook := oc.NextInst()
		if gok != ook || gi != oi || gn != on {
			t.Fatalf("inst records diverge: (%d,%d,%v) != (%d,%d,%v)", gi, gn, gok, oi, on, ook)
		}
		if !gok {
			break
		}
	}
	for {
		ga, gv, gok := gc.NextMem()
		oa, ov, ook := oc.NextMem()
		if gok != ook || ga != oa || gv != ov {
			t.Fatalf("mem records diverge")
		}
		if !gok {
			break
		}
	}
}

func TestLoadMissingIsMiss(t *testing.T) {
	s := openTestStore(t)
	v, err := s.Load(trace.Key{Workload: "absent", Size: 1, MaxInsts: 1})
	if v != nil || err != nil {
		t.Fatalf("missing artifact: got (%v, %v), want (nil, nil)", v, err)
	}
	if st := s.Stats(); st.DiskMisses != 1 {
		t.Fatalf("DiskMisses = %d, want 1", st.DiskMisses)
	}
}

// TestEveryByteFlipIsDetected proves the checksum coverage has no holes:
// flipping any single byte of a valid artifact must make decoding fail
// (or, for the rare flip that keeps the file self-consistent, reproduce
// the identical stream — which a flip inside a checksummed region
// cannot).
func TestEveryByteFlipIsDetected(t *testing.T) {
	orig := buildStream(300)
	data := EncodeStream(orig)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		back, err := DecodeStream(mut)
		if err == nil {
			t.Fatalf("byte %d: flip went undetected (decoded %d events)", i, back.Len())
		}
		if !errors.Is(err, runerr.ErrStoreCorrupt) {
			t.Fatalf("byte %d: error not typed ErrStoreCorrupt: %v", i, err)
		}
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	if _, err := DecodeIStream(EncodeStream(buildStream(10))); !errors.Is(err, runerr.ErrStoreCorrupt) {
		t.Fatalf("stream artifact decoded as istream: %v", err)
	}
	if _, err := DecodeStream(EncodeIStream(buildIStream(10, 3))); !errors.Is(err, runerr.ErrStoreCorrupt) {
		t.Fatalf("istream artifact decoded as stream: %v", err)
	}
}

// damages rewrite a published artifact the ways a crash or the media
// can leave it: each must be caught at load time, quarantine the file,
// and never serve bytes.
var damages = []struct {
	name   string
	damage func([]byte) []byte
}{
	{"torn-write", func(b []byte) []byte { return b[:len(b)/2] }},
	{"bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
	{"truncation", func(b []byte) []byte { return b[:len(b)/4] }},
}

// damageArtifact rewrites key's published artifact through damage.
func damageArtifact(t *testing.T, s *Store, key trace.Key, damage func([]byte) []byte) {
	t.Helper()
	path := s.artifactPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// blockArtifact puts a non-empty directory at key's artifact name: a
// read of it fails, and no rename can replace it, even as root.
func blockArtifact(t *testing.T, s *Store, key trace.Key) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(s.artifactPath(key), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedCorruptionQuarantined(t *testing.T) {
	for _, tc := range damages {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestStore(t)
			key := trace.Key{Workload: "dmg_" + tc.name, Size: 3, MaxInsts: 50}
			if err := s.Store(key, buildStream(2000)); err != nil {
				t.Fatalf("Store: %v", err)
			}
			damageArtifact(t, s, key, tc.damage)
			v, err := s.Load(key)
			if v != nil {
				t.Fatalf("%s: corrupt artifact served as valid", tc.name)
			}
			if !errors.Is(err, runerr.ErrStoreCorrupt) {
				t.Fatalf("%s: error not typed ErrStoreCorrupt: %v", tc.name, err)
			}
			path := s.artifactPath(key)
			if _, serr := os.Stat(path + ".quarantined"); serr != nil {
				t.Fatalf("%s: no quarantined copy: %v", tc.name, serr)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("%s: corrupt artifact still at live name", tc.name)
			}
			// The next lookup is a clean miss: the caller re-records.
			if v, err := s.Load(key); v != nil || err != nil {
				t.Fatalf("%s: post-quarantine load: (%v, %v), want miss", tc.name, v, err)
			}
			if st := s.Stats(); st.Quarantines != 1 || st.LoadErrors != 0 {
				t.Fatalf("%s: stats %+v, want 1 quarantine and no load error", tc.name, st)
			}
		})
	}
}

// TestBlockedPublishFailsTyped: a save whose publishing rename fails
// reports runerr.ErrDiskFault, counts a save error, and leaves no temp
// file behind.
func TestBlockedPublishFailsTyped(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "blocked", Size: 3, MaxInsts: 50}
	blockArtifact(t, s, key)
	err := s.Store(key, buildStream(500))
	if !errors.Is(err, runerr.ErrDiskFault) {
		t.Fatalf("blocked publish: error not typed ErrDiskFault: %v", err)
	}
	if st := s.Stats(); st.SaveErrors != 1 || st.BytesWritten != 0 {
		t.Fatalf("stats after failed publish: %+v", st)
	}
	ents, err := os.ReadDir(s.tracesDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != base(s.artifactPath(key)) {
			t.Fatalf("stray file after failed publish: %s", e.Name())
		}
	}
}

// TestStatsCountEveryLookup: each way a lookup can end shows in the
// stats — a present artifact is a hit, an absent one a miss, a damaged
// one a quarantine, and one that cannot be read a load error.
func TestStatsCountEveryLookup(t *testing.T) {
	s := openTestStore(t)
	key := func(name string) trace.Key { return trace.Key{Workload: name, Size: 3, MaxInsts: 50} }
	for _, name := range []string{"present", "damaged"} {
		if err := s.Store(key(name), buildStream(300)); err != nil {
			t.Fatalf("Store %s: %v", name, err)
		}
	}
	damageArtifact(t, s, key("damaged"), damages[0].damage)
	blockArtifact(t, s, key("blocked"))
	for _, c := range []struct {
		name  string
		found bool
		err   error
	}{
		{"present", true, nil},
		{"absent", false, nil},
		{"damaged", false, runerr.ErrStoreCorrupt},
		{"blocked", false, runerr.ErrDiskFault},
	} {
		v, err := s.Load(key(c.name))
		if (v != nil) != c.found || !errors.Is(err, c.err) {
			t.Errorf("%s: Load = (%v, %v), want found %t and error %v", c.name, v, err, c.found, c.err)
		}
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 1 || st.Quarantines != 1 || st.LoadErrors != 1 {
		t.Fatalf("stats %+v, want 1 disk hit, miss, quarantine and load error", st)
	}
}

// TestPartialTempFileIgnored simulates a SIGKILL between temp write and
// rename: the stray temp file must not satisfy a lookup, and the live
// name stays a miss.
func TestPartialTempFileIgnored(t *testing.T) {
	s := openTestStore(t)
	key := trace.Key{Workload: "killed_mid", Size: 3, MaxInsts: 50}
	tmp := filepath.Join(s.tracesDir(), "tmp-"+base(s.artifactPath(key))+"-12345")
	if err := os.WriteFile(tmp, EncodeStream(buildStream(100))[:37], 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load(key); v != nil || err != nil {
		t.Fatalf("partial temp served: (%v, %v), want miss", v, err)
	}
}
