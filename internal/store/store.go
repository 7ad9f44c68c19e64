package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"rarpred/internal/check"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// RetryPolicy bounds how hard the store fights transient I/O failures
// before giving up: Attempts total tries per operation, sleeping
// Base<<n plus up to 50% jitter between them (capped at Max). Corruption
// is never retried — a checksum mismatch is a fact about the bytes, not
// the weather.
type RetryPolicy struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

// DefaultRetry is the production policy: three tries, 5ms/10ms between
// them — enough to ride out a transient hiccup without stalling a cell.
var DefaultRetry = RetryPolicy{Attempts: 3, Base: 5 * time.Millisecond, Max: 250 * time.Millisecond}

// Stats is a snapshot of the store's effectiveness and failure history.
type Stats struct {
	// DiskHits / DiskMisses count artifact lookups served from disk vs
	// absent (a miss is normal on first contact; the recording that
	// follows publishes the artifact).
	DiskHits, DiskMisses uint64
	// BytesRead / BytesWritten total artifact and journal I/O.
	BytesRead, BytesWritten uint64
	// RawBytesWritten totals the uncompressed payload of the artifacts
	// persisted — what the write volume would have been without the
	// packed encoding (BytesWritten / RawBytesWritten is the on-disk
	// compression ratio's inverse).
	RawBytesWritten uint64
	// Quarantines counts corrupt files renamed aside (never served).
	Quarantines uint64
	// Retries counts transient I/O failures that were retried.
	Retries uint64
	// SaveErrors counts artifacts that could not be persisted even after
	// retry (the run continued without saving them).
	SaveErrors uint64
}

// Store is the durable artifact tier: trace recordings as checksummed
// files under dir/traces, published atomically, quarantined on
// corruption. It implements trace.Tier, so setting it as the
// experiments' Options.Store lets every job load its recording from
// disk and save one it recorded. A Store is safe for concurrent use.
type Store struct {
	dir   string
	fs    FS
	retry RetryPolicy
	sleep func(time.Duration)

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// Counters are atomic, so Stats reads them without a lock while
	// concurrent loads and saves update them.
	diskHits, diskMisses    metrics.Counter
	bytesRead, bytesWritten metrics.Counter
	rawBytesWritten         metrics.Counter
	quarantines             metrics.Counter
	retries                 metrics.Counter
	saveErrors              metrics.Counter
}

// Option customises Open.
type Option func(*Store)

// WithFS substitutes the filesystem seam (tests wrap OS with the
// faultsim disk injector).
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// WithRetry substitutes the transient-failure retry policy.
func WithRetry(p RetryPolicy) Option { return func(s *Store) { s.retry = p } }

// WithSleep substitutes the backoff sleeper (tests pass a no-op).
func WithSleep(f func(time.Duration)) Option { return func(s *Store) { s.sleep = f } }

// WithJitterSource substitutes the backoff jitter's randomness source.
// Tests inject a fixed seed for reproducible backoff sequences; by
// default every Store draws its own seed so no two stores — in one
// process or across processes sharing a disk — jitter in lockstep.
func WithJitterSource(src rand.Source) Option {
	return func(s *Store) { s.jitter = rand.New(src) }
}

// Open creates (or reuses) the artifact store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:   dir,
		fs:    OS{},
		retry: DefaultRetry,
		sleep: time.Sleep,
		// Seeded from the process-global generator (itself randomly
		// seeded since Go 1.20), so concurrent retries desynchronise
		// across stores and across processes contending on one disk.
		// Backoff jitter is the one place the store is deliberately
		// nondeterministic; tests pin it with WithJitterSource.
		jitter: rand.New(rand.NewSource(rand.Int63())),
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.fs.MkdirAll(s.tracesDir()); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", s.tracesDir(), err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tracesDir() string { return join(s.dir, "traces") }

// JournalPath returns the suite run journal's location inside the store.
func (s *Store) JournalPath() string { return join(s.dir, "journal.rarj") }

// artifactPath maps a recording's key to its on-disk artifact. Workload names
// are identifier-shaped ([a-z0-9_]), so the filename is readable and
// collision-free without hashing.
func (s *Store) artifactPath(key trace.Key) string {
	kind := "mem"
	if key.Timing {
		kind = "inst"
	}
	return join(s.tracesDir(), fmt.Sprintf("%s_s%d_m%d_%s.rart", key.Workload, key.Size, key.MaxInsts, kind))
}

// Stats returns a consistent-enough snapshot (counters are individually
// atomic).
func (s *Store) Stats() Stats {
	return Stats{
		DiskHits:        s.diskHits.Value(),
		DiskMisses:      s.diskMisses.Value(),
		BytesRead:       s.bytesRead.Value(),
		BytesWritten:    s.bytesWritten.Value(),
		RawBytesWritten: s.rawBytesWritten.Value(),
		Quarantines:     s.quarantines.Value(),
		Retries:         s.retries.Value(),
		SaveErrors:      s.saveErrors.Value(),
	}
}

// backoff sleeps before retry attempt n (0-based), exponential with up
// to 50% jitter.
func (s *Store) backoff(n int) {
	d := s.retry.Base << uint(n)
	if s.retry.Max > 0 && d > s.retry.Max {
		d = s.retry.Max
	}
	if d <= 0 {
		return
	}
	s.jitterMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.jitterMu.Unlock()
	s.sleep(d + j)
}

// withRetry runs op up to the policy's attempt budget, backing off
// between transient failures. Corruption errors and missing files are
// returned immediately — retrying cannot change the bytes on disk.
func (s *Store) withRetry(op func() error) error {
	attempts := max(s.retry.Attempts, 1)
	var err error
	for n := 0; n < attempts; n++ {
		if err = op(); err == nil {
			return nil
		}
		if errors.Is(err, runerr.ErrStoreCorrupt) || IsNotExist(err) {
			return err
		}
		if n+1 < attempts {
			s.retries.Add(1)
			s.backoff(n)
		}
	}
	return err
}

// quarantine renames a corrupt file aside so it is preserved for
// post-mortem but can never be read as a valid artifact again. If even
// the rename fails the file is removed — serving corrupt bytes twice is
// the one unacceptable outcome.
func (s *Store) quarantine(path string) {
	s.quarantines.Add(1)
	if err := s.fs.Rename(path, path+".quarantined"); err != nil {
		removeQuiet(s.fs, path)
	}
}

// Load implements trace.Tier: it returns the recording stored for key,
// (nil, nil) when no artifact exists, or a typed error. A corrupt
// artifact is quarantined and reported as runerr.ErrStoreCorrupt — the
// caller treats any error as a miss and re-records, so corruption heals
// by live re-recording while the evidence is kept.
func (s *Store) Load(key trace.Key) (trace.Cached, error) {
	path := s.artifactPath(key)
	var data []byte
	err := s.withRetry(func() error {
		var rerr error
		data, rerr = s.fs.ReadFile(path)
		return rerr
	})
	if err != nil {
		if IsNotExist(err) {
			s.diskMisses.Add(1)
			return nil, nil
		}
		return nil, fmt.Errorf("%w: reading %s: %w", runerr.ErrDiskFault, path, err)
	}
	s.bytesRead.Add(uint64(len(data)))

	var v trace.Cached
	var reencode func() []byte
	if key.Timing {
		is, derr := DecodeIStream(data)
		v, err = is, derr
		if derr == nil {
			reencode = func() []byte { return EncodeIStream(is) }
		}
	} else {
		ms, derr := DecodeStream(data)
		v, err = ms, derr
		if derr == nil {
			reencode = func() []byte { return EncodeStream(ms) }
		}
	}
	if err != nil {
		s.quarantine(path)
		return nil, fmt.Errorf("artifact %s quarantined: %w", path, err)
	}
	if check.Enabled {
		// Load-time oracle (rarcheck builds): the codec is
		// deterministic, so the decoded artifact must re-encode to the
		// stored bytes exactly — any divergence means the decoder
		// accepted something the encoder would never have produced.
		check.Assertf(bytes.Equal(reencode(), data), "store.load",
			"decoded artifact %s does not re-encode to its stored bytes", path)
	}
	s.diskHits.Add(1)
	return v, nil
}

// Store implements trace.Tier: it publishes the recording for key
// atomically — stream the encoding chunk-by-chunk to a temp file in the
// same directory, fsync, rename onto the live name — so a crash at any
// point leaves either no artifact or a complete one, and a reader can
// never observe a half-written file. The encoding streams one framed
// chunk per write, so peak memory during save is one chunk's frame, not
// the whole artifact. Failures (after bounded retry) are reported but
// non-fatal to the caller's run; the artifact simply is not persisted.
func (s *Store) Store(key trace.Key, v trace.Cached) error {
	var writeTo func(io.Writer) (int64, error)
	var raw int64
	switch t := v.(type) {
	case *trace.Stream:
		writeTo = func(w io.Writer) (int64, error) { return WriteStream(w, t) }
		raw = t.RawBytes()
	case *trace.IStream:
		writeTo = func(w io.Writer) (int64, error) { return WriteIStream(w, t) }
		raw = t.RawBytes()
	default:
		return fmt.Errorf("store: cannot persist %T", v)
	}
	path := s.artifactPath(key)
	var written int64
	err := s.withRetry(func() error {
		var perr error
		written, perr = s.publish(path, writeTo)
		return perr
	})
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("%w: writing %s: %w", runerr.ErrDiskFault, path, err)
	}
	s.bytesWritten.Add(uint64(written))
	s.rawBytesWritten.Add(uint64(raw))
	return nil
}

// publish is one atomic-write attempt: temp file, streamed write,
// fsync, close, rename. Any failure removes the temp file; the live
// name is only ever touched by the final rename. The temp name embeds
// the artifact's base name so a disk fault armed on a workload pattern
// hits the writes that actually carry that artifact's bytes.
func (s *Store) publish(path string, writeTo func(io.Writer) (int64, error)) (int64, error) {
	f, tmp, err := s.fs.CreateTemp(s.tracesDir(), "tmp-"+base(path)+"-")
	if err != nil {
		return 0, err
	}
	n, err := writeTo(f)
	if err != nil {
		f.Close()
		removeQuiet(s.fs, tmp)
		return n, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		removeQuiet(s.fs, tmp)
		return n, err
	}
	if err := f.Close(); err != nil {
		removeQuiet(s.fs, tmp)
		return n, err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		removeQuiet(s.fs, tmp)
		return n, err
	}
	return n, nil
}
