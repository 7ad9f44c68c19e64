// Package store is the crash-safe persistence layer of the experiment
// harness: a durable home for trace recordings (chunked binary
// artifacts with a versioned header and per-chunk CRC32C checksums,
// published atomically). The recordings are the only state a run
// leaves behind: a run that was interrupted is rerun, and the rerun
// loads every recording the interrupted one published.
//
// Every byte the store reads back is checksum-verified before it is
// believed: a torn write, bit flip, or truncated file is detected, the
// bad file is quarantined (renamed aside, never silently reused), and a
// typed runerr corruption error sends the caller down the one path a
// miss takes (record again). A recording the caller finds wrong after
// loading it (a -check divergence) is quarantined the same way
// (Store.Quarantine). Writes publish atomically — encode to a temp
// file, fsync, rename — so a crash at any instant leaves either the old
// artifact or the new one, never a half-written file under the live
// name. Every failed operation takes that same path once: a failed read
// is a miss and the caller records, and a failed save costs that
// artifact's durability, never the run.
//
// All filesystem access goes through the FS seam, so a test can watch
// the writes a save issues.
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable handle the store's FS returns: a plain writer
// plus the explicit durability point (Sync) the atomic-publish protocol
// needs before rename.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// FS is the filesystem seam every store operation goes through. The
// production implementation is OS; a test wraps it to observe the
// writes.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// ReadFile returns the whole content of name. A missing file must
	// return an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new unique scratch file in dir whose name
	// starts with pattern, returning the handle and its path.
	CreateTemp(dir, pattern string) (File, string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
}

// OS is the production FS: direct os calls.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// IsNotExist reports whether err means the file was simply absent — the
// one read failure that is a miss, not a fault.
func IsNotExist(err error) bool { return err != nil && errors.Is(err, fs.ErrNotExist) }

// removeQuiet deletes name, ignoring errors (cleanup of scratch files on
// already-failing paths).
func removeQuiet(f FS, name string) {
	_ = f.Remove(name)
}

// join is filepath.Join, aliased so every path the store builds funnels
// through one site.
func join(elem ...string) string { return filepath.Join(elem...) }

// base is filepath.Base, same rationale.
func base(name string) string { return filepath.Base(name) }
