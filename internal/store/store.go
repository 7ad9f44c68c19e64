package store

import (
	"bytes"
	"fmt"
	"io"

	"rarpred/internal/check"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
	"rarpred/internal/trace"
)

// Stats is a snapshot of the store's effectiveness and failure history.
type Stats struct {
	// DiskHits / DiskMisses count artifact lookups served from disk vs
	// absent (a miss is normal on first contact; the recording that
	// follows publishes the artifact).
	DiskHits, DiskMisses uint64
	// BytesRead / BytesWritten total artifact I/O.
	BytesRead, BytesWritten uint64
	// RawBytesWritten totals the uncompressed payload of the artifacts
	// persisted — what the write volume would have been without the
	// packed encoding (BytesWritten / RawBytesWritten is the on-disk
	// compression ratio's inverse).
	RawBytesWritten uint64
	// Quarantines counts artifacts renamed aside, never to be served
	// again: ones that failed to decode, and ones a caller quarantined
	// (Quarantine).
	Quarantines uint64
	// LoadErrors counts artifact reads that failed for a reason other
	// than absence; each is served as a miss, and the job records.
	LoadErrors uint64
	// SaveErrors counts artifacts that could not be persisted (the run
	// continued without saving them).
	SaveErrors uint64
}

// Store is the durable artifact tier: trace recordings as checksummed
// files under dir/traces, published atomically, quarantined on
// corruption. It implements trace.Tier, so setting it as the
// experiments' Options.Store lets every job load its recording from
// disk and save one it recorded. A Store is safe for concurrent use.
type Store struct {
	dir string
	fs  FS

	// Counters are atomic, so Stats reads them without a lock while
	// concurrent loads and saves update them.
	diskHits, diskMisses    metrics.Counter
	bytesRead, bytesWritten metrics.Counter
	rawBytesWritten         metrics.Counter
	quarantines             metrics.Counter
	loadErrors              metrics.Counter
	saveErrors              metrics.Counter
}

// Option customises Open.
type Option func(*Store)

// WithFS substitutes the filesystem seam (tests wrap OS with a spy on
// the writes a save issues).
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// Open creates (or reuses) the artifact store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, fs: OS{}}
	for _, o := range opts {
		o(s)
	}
	if err := s.fs.MkdirAll(s.tracesDir()); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", s.tracesDir(), err)
	}
	return s, nil
}

func (s *Store) tracesDir() string { return join(s.dir, "traces") }

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
		LoadErrors:      s.loadErrors.Value(),
		SaveErrors:      s.saveErrors.Value(),
	}
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

// Quarantine implements trace.Tier: it renames key's artifact aside, as
// Load does with one that fails to decode, so no later run is served
// it. The caller calls it for a recording it loaded and then found
// wrong (a -check divergence); the next run records key afresh.
func (s *Store) Quarantine(key trace.Key) {
	s.quarantine(s.artifactPath(key))
}

// Load implements trace.Tier: it returns the recording stored for key,
// (nil, nil) when no artifact exists, or a typed error. A read that
// fails is reported as runerr.ErrDiskFault, and a corrupt artifact is
// quarantined and reported as runerr.ErrStoreCorrupt. The caller treats
// any error as a miss and re-records, so a failed read or corruption
// heals by live re-recording while the evidence is kept.
func (s *Store) Load(key trace.Key) (trace.Cached, error) {
	path := s.artifactPath(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if IsNotExist(err) {
			s.diskMisses.Add(1)
			return nil, nil
		}
		s.loadErrors.Add(1)
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
// the whole artifact. A failure is reported but non-fatal to the
// caller's run; the artifact simply is not persisted.
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
	written, err := s.publish(path, writeTo)
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("%w: writing %s: %w", runerr.ErrDiskFault, path, err)
	}
	s.bytesWritten.Add(uint64(written))
	s.rawBytesWritten.Add(uint64(raw))
	return nil
}

// publish is the atomic write: temp file, streamed write, fsync, close,
// rename. Any failure removes the temp file; the live name is only ever
// touched by the final rename. The temp name embeds the artifact's base
// name, so a temp file a crash leaves behind names its artifact.
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
