package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"rarpred/internal/runerr"
)

// The suite run journal is an append-only log of completed cells: one
// fsynced record per (experiment × workload) cell that finished
// successfully, written the moment the cell retires. A rerun with
// -resume replays these records — the journaled cells' rows are decoded
// and fed straight to each experiment's assembler, so only the
// remainder is re-simulated and the aggregate stdout matches an
// uninterrupted run byte for byte.
//
// Layout (little endian):
//
//	header: magic "RARJ" | version u16 | reserved u16
//	        | fpLen u32 | fingerprint | crc32c over everything before it
//	record: len u32 | payload | crc32c(payload)
//	payload: expLen u16 | exp | wlLen u16 | workload | rowLen u32 | row
//	         | seconds f64 (IEEE 754 bits, little endian)
//
// seconds is the cell's wall-clock runtime in the run that journaled
// it; a resumed run feeds it to the scheduler's longest-processing-time
// job ordering so the slowest cells start first. Version 1 journals
// (no seconds field) are quarantined on resume and the run starts a
// fresh journal — re-simulating one suite is cheaper than carrying a
// parallel decode path forever.
//
// The fingerprint binds the journal to the run configuration (experiment
// list, workloads, size, instruction budget, flags that change output);
// resuming under a different configuration is refused rather than
// replaying rows that no longer mean the same thing.
//
// A crash can leave a torn final record. Opening for resume scans
// records until the first short or checksum-failing one, truncates the
// file back to the last good boundary, and appends from there — the
// torn tail costs exactly the one cell that was mid-journal, which
// simply re-runs.

var journalMagic = [4]byte{'R', 'A', 'R', 'J'}

const journalVersion = 2

// ErrJournalMismatch reports a -resume against a journal written by a
// run with a different configuration.
var ErrJournalMismatch = fmt.Errorf("journal fingerprint mismatch (run configuration changed)")

// Journal is the open run journal: the records loaded at open (resume)
// plus an append handle. It implements the experiment scheduler's
// SuiteJournal seam. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	fs      FS
	path    string
	f       File
	entries map[journalKey]journalEntry
	loaded  int
	store   *Store // optional, for byte accounting
}

type journalKey struct{ exp, workload string }

type journalEntry struct {
	row     []byte
	seconds float64
}

// CreateJournal starts a fresh journal at path, discarding any previous
// one (a run without -resume must not inherit stale cells).
func CreateJournal(fsys FS, path, fingerprint string) (*Journal, error) {
	removeQuiet(fsys, path)
	j := &Journal{fs: fsys, path: path, entries: make(map[journalKey]journalEntry)}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	hdr := journalHeader(fingerprint)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: syncing header: %w", err)
	}
	return j, nil
}

// ResumeJournal opens an existing journal, verifies its fingerprint,
// loads every intact record, repairs a torn tail (truncating back to
// the last good record boundary), and positions for append. A missing
// journal starts fresh — resume after "nothing happened yet" is a
// normal first run. A journal whose header is unreadable is quarantined
// and a fresh one started: resume must never be the thing that fails a
// run.
func ResumeJournal(fsys FS, path, fingerprint string) (*Journal, error) {
	data, err := fsys.ReadFile(path)
	if IsNotExist(err) {
		return CreateJournal(fsys, path, fingerprint)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}

	entries := make(map[journalKey]journalEntry)
	good, err := scanJournal(data, fingerprint, func(exp, wl string, row []byte, seconds float64) {
		entries[journalKey{exp, wl}] = journalEntry{row: row, seconds: seconds}
	})
	if err != nil {
		if err == ErrJournalMismatch {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		// Header-level corruption: keep the evidence, start over.
		_ = fsys.Rename(path, path+".quarantined")
		return CreateJournal(fsys, path, fingerprint)
	}
	if good < int64(len(data)) {
		// Torn or corrupt tail: cut back to the last good boundary so
		// appended records land on a clean edge.
		if err := fsys.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("journal: repairing torn tail: %w", err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{fs: fsys, path: path, f: f, entries: entries, loaded: len(entries)}, nil
}

// journalHeader renders the header block for fingerprint.
func journalHeader(fingerprint string) []byte {
	fp := []byte(fingerprint)
	buf := make([]byte, 0, 12+len(fp)+4)
	buf = append(buf, journalMagic[:]...)
	var u [4]byte
	binary.LittleEndian.PutUint16(u[:2], journalVersion)
	buf = append(buf, u[0], u[1], 0, 0)
	binary.LittleEndian.PutUint32(u[:], uint32(len(fp)))
	buf = append(buf, u[:]...)
	buf = append(buf, fp...)
	binary.LittleEndian.PutUint32(u[:], crc32.Checksum(buf, castagnoli))
	return append(buf, u[:]...)
}

// scanJournal walks data, calling visit for every intact record, and
// returns the byte offset of the last good record boundary. Header
// problems (bad magic/version/checksum) are errors; fingerprint
// disagreement is ErrJournalMismatch; record-level damage just ends the
// scan (the tail is the torn part a crash legitimately leaves).
func scanJournal(data []byte, fingerprint string, visit func(exp, wl string, row []byte, seconds float64)) (int64, error) {
	if len(data) < 16 {
		return 0, fmt.Errorf("%w: journal shorter than its header", runerr.ErrStoreCorrupt)
	}
	if [4]byte(data[:4]) != journalMagic {
		return 0, fmt.Errorf("%w: bad journal magic %q", runerr.ErrStoreCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != journalVersion {
		return 0, fmt.Errorf("%w: unsupported journal version %d", runerr.ErrStoreCorrupt, v)
	}
	fpLen := int(binary.LittleEndian.Uint32(data[8:]))
	if fpLen < 0 || len(data) < 12+fpLen+4 {
		return 0, fmt.Errorf("%w: journal header truncated", runerr.ErrStoreCorrupt)
	}
	hdrEnd := 12 + fpLen + 4
	got := binary.LittleEndian.Uint32(data[12+fpLen:])
	if want := crc32.Checksum(data[:12+fpLen], castagnoli); got != want {
		return 0, fmt.Errorf("%w: journal header checksum mismatch", runerr.ErrStoreCorrupt)
	}
	if string(data[12:12+fpLen]) != fingerprint {
		return 0, ErrJournalMismatch
	}

	off := int64(hdrEnd)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return off, nil
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 8 || len(rest)-8 < n {
			return off, nil
		}
		payload := rest[4 : 4+n]
		crc := binary.LittleEndian.Uint32(rest[4+n:])
		if crc != crc32.Checksum(payload, castagnoli) {
			return off, nil
		}
		exp, wl, row, seconds, ok := parseRecord(payload)
		if !ok {
			return off, nil
		}
		visit(exp, wl, row, seconds)
		off += int64(8 + n)
	}
}

func parseRecord(payload []byte) (exp, wl string, row []byte, seconds float64, ok bool) {
	if len(payload) < 2 {
		return "", "", nil, 0, false
	}
	en := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < en+2 {
		return "", "", nil, 0, false
	}
	exp = string(payload[:en])
	payload = payload[en:]
	wn := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < wn+4 {
		return "", "", nil, 0, false
	}
	wl = string(payload[:wn])
	payload = payload[wn:]
	rn := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) != rn+8 {
		return "", "", nil, 0, false
	}
	row = payload[:rn]
	seconds = math.Float64frombits(binary.LittleEndian.Uint64(payload[rn:]))
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		seconds = 0 // a defensible default; the LPT sort treats 0 as cheap
	}
	return exp, wl, row, seconds, true
}

// Lookup returns the journaled row for one cell, if a previous run
// completed it.
func (j *Journal) Lookup(exp, workload string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[journalKey{exp, workload}]
	return e.row, ok
}

// Seconds returns the cell's journaled wall-clock runtime, if a
// previous run completed it. The scheduler uses it as the job cost for
// longest-processing-time ordering on resume.
func (j *Journal) Seconds(exp, workload string) (float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[journalKey{exp, workload}]
	return e.seconds, ok
}

// Resumed returns how many completed cells the journal carried at open.
func (j *Journal) Resumed() int { return j.loaded }

// Record appends one completed cell durably: length-prefixed,
// checksummed, fsynced before Record returns — once a cell is reported
// done, no crash can un-journal it. seconds is the cell's wall-clock
// runtime, journaled so a resumed run can order the remaining jobs
// longest-first.
func (j *Journal) Record(exp, workload string, row []byte, seconds float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[journalKey{exp, workload}] = journalEntry{row: row, seconds: seconds}
	return j.appendLocked(exp, workload, row, seconds)
}

// appendLocked frames, checksums, writes and fsyncs one record.
func (j *Journal) appendLocked(exp, workload string, row []byte, seconds float64) error {
	payload := make([]byte, 0, 16+len(exp)+len(workload)+len(row))
	var u [8]byte
	binary.LittleEndian.PutUint16(u[:2], uint16(len(exp)))
	payload = append(payload, u[0], u[1])
	payload = append(payload, exp...)
	binary.LittleEndian.PutUint16(u[:2], uint16(len(workload)))
	payload = append(payload, u[0], u[1])
	payload = append(payload, workload...)
	binary.LittleEndian.PutUint32(u[:4], uint32(len(row)))
	payload = append(payload, u[:4]...)
	payload = append(payload, row...)
	binary.LittleEndian.PutUint64(u[:], math.Float64bits(seconds))
	payload = append(payload, u[:]...)

	rec := make([]byte, 0, 8+len(payload))
	binary.LittleEndian.PutUint32(u[:4], uint32(len(payload)))
	rec = append(rec, u[:4]...)
	rec = append(rec, payload...)
	binary.LittleEndian.PutUint32(u[:4], crc32.Checksum(payload, castagnoli))
	rec = append(rec, u[:4]...)

	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.store != nil {
		j.store.bytesWritten.Add(uint64(len(rec)))
	}
	return nil
}

// Close releases the append handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// OpenJournal opens the store's run journal: fresh when resume is
// false, resumed (torn tail repaired, completed cells loaded) when
// true. Journal I/O is counted in the store's byte totals.
func (s *Store) OpenJournal(fingerprint string, resume bool) (*Journal, error) {
	var j *Journal
	var err error
	if resume {
		j, err = ResumeJournal(s.fs, s.JournalPath(), fingerprint)
	} else {
		j, err = CreateJournal(s.fs, s.JournalPath(), fingerprint)
	}
	if err != nil {
		return nil, err
	}
	j.store = s
	return j, nil
}
