package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// fakeTier is an in-memory trace.Tier standing in for the artifact
// store (Options.Store). It serves what was saved to it, or, with load
// set, what load returns, and counts loads, saves and quarantines by
// key. Quarantine drops what was saved under the key.
type fakeTier struct {
	load func(trace.Key) (trace.Cached, error)

	mu          sync.Mutex
	saved       map[trace.Key]trace.Cached
	loads       map[trace.Key]int
	saves       map[trace.Key]int
	quarantines map[trace.Key]int
}

func (f *fakeTier) Load(key trace.Key) (trace.Cached, error) {
	f.mu.Lock()
	if f.loads == nil {
		f.loads = make(map[trace.Key]int)
	}
	f.loads[key]++
	v := f.saved[key]
	f.mu.Unlock()
	if f.load != nil {
		return f.load(key)
	}
	return v, nil
}

func (f *fakeTier) Store(key trace.Key, v trace.Cached) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.saved == nil {
		f.saved, f.saves = make(map[trace.Key]trace.Cached), make(map[trace.Key]int)
	}
	f.saved[key] = v
	f.saves[key]++
	return nil
}

func (f *fakeTier) Quarantine(key trace.Key) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.quarantines == nil {
		f.quarantines = make(map[trace.Key]int)
	}
	delete(f.saved, key)
	f.quarantines[key]++
}

func (f *fakeTier) loadsOf(key trace.Key) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loads[key]
}

func (f *fakeTier) savesOf(key trace.Key) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saves[key]
}

func (f *fakeTier) quarantinesOf(key trace.Key) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.quarantines[key]
}

// plantedTier is a store that serves rec under key and nothing else.
func plantedTier(key trace.Key, rec trace.Cached) *fakeTier {
	return &fakeTier{load: func(k trace.Key) (trace.Cached, error) {
		if k == key {
			return rec, nil
		}
		return nil, nil
	}}
}

// recordingKeys returns the keys of the memory and the instruction
// recording of each of opt's workloads.
func recordingKeys(opt Options) []trace.Key {
	var keys []trace.Key
	for _, w := range opt.workloads() {
		for _, timing := range []bool{false, true} {
			keys = append(keys, trace.Key{Workload: w.Name, Size: opt.Size, MaxInsts: maxInsts, Timing: timing})
		}
	}
	return keys
}

// TestOneLoadPerRecording pins the premise that lets a job own its
// recording: in a suite of every experiment over two workloads, each
// workload's memory and instruction recordings are each asked for
// once, by the one job that reads it, and saved once.
func TestOneLoadPerRecording(t *testing.T) {
	opt := subset("go", "tom")
	opt.Parallelism = 2
	tier := &fakeTier{}
	opt.Store = tier
	RunSuite(opt, All(), func(item SuiteItem) bool {
		if item.Err != nil {
			t.Errorf("%s: %v", item.Exp.ID, item.Err)
		}
		return true
	})
	keys := recordingKeys(opt)
	for _, key := range keys {
		if loads, saves := tier.loadsOf(key), tier.savesOf(key); loads != 1 || saves != 1 {
			t.Errorf("%+v: %d loads and %d saves, want one of each", key, loads, saves)
		}
	}
	if len(tier.loads) != len(keys) {
		t.Errorf("the store was asked for %d recordings, want %d: %v", len(tier.loads), len(keys), tier.loads)
	}
}

// TestNoRecordingOutlivesItsJob: a job's recording becomes garbage when
// the job returns. The store hands a suite a memory and an instruction
// recording that each carry a finalizer; once the suite has returned, a
// collection runs both.
func TestNoRecordingOutlivesItsJob(t *testing.T) {
	opt := subset("go")
	w := opt.Workloads[0]
	var collected atomic.Int32
	opt.Store = &fakeTier{load: func(key trace.Key) (trace.Cached, error) {
		prog := w.Assemble(key.Size)
		if key.Timing {
			is, err := trace.RecordIStream(prog, key.MaxInsts)
			runtime.SetFinalizer(is, func(*trace.IStream) { collected.Add(1) })
			return is, err
		}
		tr, err := trace.RecordStream(prog, key.MaxInsts)
		runtime.SetFinalizer(tr, func(*trace.Stream) { collected.Add(1) })
		return tr, err
	}}
	RunSuite(opt, []Experiment{mustByID(t, "fig2"), mustByID(t, "fig10")}, func(item SuiteItem) bool {
		if item.Err != nil {
			t.Errorf("%s: %v", item.Exp.ID, item.Err)
		}
		return true
	})
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 recordings collected after the suite returned; something keeps the rest alive", collected.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObtain: how a job gets its recording through the store. A stored
// recording is served without recording; a miss, a load error, or a
// stored recording that fails validation records and saves; only a
// recording that passed validation is ever saved; and a stored
// recording that fails -check's oracle is quarantined.
func TestObtain(t *testing.T) {
	opt := subset("gcc", "tom")
	opt.Size = 5
	w := opt.Workloads[0] // the store's checks are on gcc alone
	key := recordingKeys(opt)[0]
	plain, err := mustByID(t, "fig2").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(t *testing.T) *trace.Stream {
		t.Helper()
		tr, err := trace.RecordStream(w.Assemble(opt.Size), maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// corrupt is a recording whose execution profile counts one load
	// more than its events hold, so it fails validation.
	corrupt := func(t *testing.T) *trace.Stream {
		t.Helper()
		tr := fresh(t)
		tr.Counts.Loads++
		if tr.Validate() == nil {
			t.Fatal("test setup: corrupt recording passes validation")
		}
		return tr
	}
	// run runs fig2 against tier and returns its result.
	run := func(t *testing.T, tier *fakeTier) Result {
		t.Helper()
		o := opt
		o.Store = tier
		res, err := mustByID(t, "fig2").Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// obtainWith obtains gcc's recording from tier through rec, the
	// recorder standing in for the interpreter, and under -check when
	// verify, the oracle, is set.
	obtainWith := func(tier *fakeTier, rec func() (*trace.Stream, error), verify func(*trace.Stream) error) (*trace.Stream, error) {
		o := opt
		o.Store = tier
		o.Check = verify != nil
		return obtain(o, key, recorder[*trace.Stream]{
			record:    rec,
			truncated: func(tr *trace.Stream) bool { return tr.Truncated },
			verify:    verify,
		})
	}
	// savedValid reports unless tier saved exactly one recording under
	// key, and it is the workload's committed stream.
	savedValid := func(t *testing.T, tier *fakeTier) {
		t.Helper()
		if n := tier.savesOf(key); n != 1 {
			t.Fatalf("saved %d times, want once", n)
		}
		got, ok := tier.saved[key].(*trace.Stream)
		if !ok {
			t.Fatalf("saved %T, want *trace.Stream", tier.saved[key])
		}
		if err := got.Validate(); err != nil {
			t.Errorf("saved a recording that fails validation: %v", err)
		}
		if err := trace.DiffStreams(got, fresh(t)); err != nil {
			t.Errorf("saved recording differs from a fresh one: %v", err)
		}
	}
	same := func(t *testing.T, res Result) {
		t.Helper()
		if res.String() != plain.String() {
			t.Errorf("result differs from a run without a store:\n--- got ---\n%s--- want ---\n%s", res, plain)
		}
	}

	t.Run("hit-skips-recording", func(t *testing.T) {
		stored := fresh(t)
		tier := plantedTier(key, stored)
		got, err := obtainWith(tier, func() (*trace.Stream, error) {
			t.Error("recorded a stream the store holds")
			return nil, errors.New("recorded")
		}, nil)
		if err != nil || got != stored {
			t.Fatalf("obtain = %p, %v; want the stored recording %p", got, err, stored)
		}
		if n := tier.savesOf(key); n != 0 {
			t.Errorf("a loaded recording was saved again %d times", n)
		}
	})
	t.Run("miss-records-then-saves", func(t *testing.T) {
		tier := &fakeTier{}
		same(t, run(t, tier))
		if n := tier.loadsOf(key); n != 1 {
			t.Errorf("asked the store %d times, want once", n)
		}
		savedValid(t, tier)
	})
	t.Run("load-error-records", func(t *testing.T) {
		tier := &fakeTier{load: func(trace.Key) (trace.Cached, error) {
			return nil, errors.New("artifact quarantined")
		}}
		same(t, run(t, tier))
		savedValid(t, tier)
	})
	t.Run("failed-recording-not-saved", func(t *testing.T) {
		// The store cancels the run and misses, so the recording that
		// follows fails.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tier := &fakeTier{load: func(trace.Key) (trace.Cached, error) {
			cancel()
			return nil, nil
		}}
		o := opt
		o.Store = tier
		if _, err := workloadStream(ctx, o, w, opt.Size); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the canceled recording's context.Canceled", err)
		}
		if n := tier.savesOf(key); n != 0 {
			t.Errorf("a failed recording was saved %d times", n)
		}
	})
	t.Run("invalid-recording-fails-unsaved", func(t *testing.T) {
		tier := &fakeTier{}
		if _, err := obtainWith(tier, func() (*trace.Stream, error) { return corrupt(t), nil }, nil); !errors.Is(err, runerr.ErrTraceCorrupt) {
			t.Fatalf("err = %v, want ErrTraceCorrupt", err)
		}
		if n := tier.savesOf(key); n != 0 {
			t.Errorf("a recording that fails validation was saved %d times", n)
		}
	})
	t.Run("corrupt-recording-rerecorded-then-saved", func(t *testing.T) {
		// A stored recording that fails validation is a miss: the job
		// records the stream again and saves that.
		tier := plantedTier(key, corrupt(t))
		same(t, run(t, tier))
		savedValid(t, tier)
	})
	t.Run("failed-check-quarantines-loaded-only", func(t *testing.T) {
		// The oracle fails both recordings. The loaded one is
		// quarantined; the fresh one was never saved, so nothing is.
		diverges := errors.New("diverges")
		verify := func(*trace.Stream) error { return diverges }
		record := func() (*trace.Stream, error) { return fresh(t), nil }
		loaded := plantedTier(key, fresh(t))
		if _, err := obtainWith(loaded, record, verify); !errors.Is(err, diverges) {
			t.Fatalf("loaded: err = %v, want the oracle's", err)
		}
		if n := loaded.quarantinesOf(key); n != 1 {
			t.Errorf("loaded: quarantined %d times, want once", n)
		}
		recorded := &fakeTier{}
		if _, err := obtainWith(recorded, record, verify); !errors.Is(err, diverges) {
			t.Fatalf("recorded: err = %v, want the oracle's", err)
		}
		if q, n := recorded.quarantinesOf(key), recorded.savesOf(key); q != 0 || n != 0 {
			t.Errorf("recorded: %d quarantines and %d saves, want none", q, n)
		}
	})
}
