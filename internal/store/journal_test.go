package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const testFP = "v1 exp=fig2 size=13 bench= live=false check=false"

func journalFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.rarj")
}

func TestJournalRecordAndResume(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	cells := map[[2]string][]byte{
		{"fig2", "go_like"}:  []byte("row-go"),
		{"fig2", "gcc_like"}: []byte("row-gcc"),
		{"fig5", "go_like"}:  []byte("row-go-5"),
	}
	secs := map[[2]string]float64{
		{"fig2", "go_like"}:  1.5,
		{"fig2", "gcc_like"}: 0.25,
		{"fig5", "go_like"}:  12.75,
	}
	for k, row := range cells {
		if err := j.Record(k[0], k[1], row, secs[k]); err != nil {
			t.Fatalf("Record(%v): %v", k, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer r.Close()
	if r.Resumed() != len(cells) {
		t.Fatalf("Resumed() = %d, want %d", r.Resumed(), len(cells))
	}
	for k, want := range cells {
		got, ok := r.Lookup(k[0], k[1])
		if !ok || string(got) != string(want) {
			t.Fatalf("Lookup(%v) = %q, %v; want %q", k, got, ok, want)
		}
	}
	for k, want := range secs {
		got, ok := r.Seconds(k[0], k[1])
		if !ok || got != want {
			t.Fatalf("Seconds(%v) = %v, %v; want %v", k, got, ok, want)
		}
	}
	if _, ok := r.Lookup("fig5", "gcc_like"); ok {
		t.Fatal("Lookup invented a cell that was never journaled")
	}
	if _, ok := r.Seconds("fig5", "gcc_like"); ok {
		t.Fatal("Seconds invented a cell that was never journaled")
	}
	// The resumed journal appends cleanly past the existing records.
	if err := r.Record("fig5", "gcc_like", []byte("late"), 0); err != nil {
		t.Fatalf("Record after resume: %v", err)
	}
	r.Close()
	r2, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer r2.Close()
	if r2.Resumed() != len(cells)+1 {
		t.Fatalf("after append, Resumed() = %d, want %d", r2.Resumed(), len(cells)+1)
	}
}

func TestJournalMissingStartsFresh(t *testing.T) {
	j, err := ResumeJournal(OS{}, journalFile(t), testFP)
	if err != nil {
		t.Fatalf("resume with no journal: %v", err)
	}
	defer j.Close()
	if j.Resumed() != 0 {
		t.Fatalf("fresh journal claims %d resumed cells", j.Resumed())
	}
}

// TestJournalTornTail simulates a crash mid-append: bytes of an
// incomplete record after the last fsynced one. Resume must keep every
// complete record, drop the tail, and leave the file appendable.
func TestJournalTornTail(t *testing.T) {
	for _, tail := range [][]byte{
		{0x40},                         // lone length byte
		{0x40, 0x00, 0x00, 0x00, 0xab}, // length promising more than present
		{0x0c, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xde, 0xad, 0xbe, 0xef}, // full record, bad CRC
	} {
		path := journalFile(t)
		j, err := CreateJournal(OS{}, path, testFP)
		if err != nil {
			t.Fatal(err)
		}
		j.Record("fig2", "go_like", []byte("good-1"), 1)
		j.Record("fig2", "gcc_like", []byte("good-2"), 2)
		j.Close()
		sizeBefore := fileSize(t, path)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()

		r, err := ResumeJournal(OS{}, path, testFP)
		if err != nil {
			t.Fatalf("resume over torn tail %x: %v", tail, err)
		}
		if r.Resumed() != 2 {
			t.Fatalf("torn tail %x: Resumed() = %d, want 2", tail, r.Resumed())
		}
		if got := fileSize(t, path); got != sizeBefore {
			t.Fatalf("torn tail %x: file is %d bytes, want repaired to %d", tail, got, sizeBefore)
		}
		if err := r.Record("fig2", "li_like", []byte("post-repair"), 3); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		r.Close()
		r2, err := ResumeJournal(OS{}, path, testFP)
		if err != nil || r2.Resumed() != 3 {
			t.Fatalf("after repair+append: %d cells, %v", r2.Resumed(), err)
		}
		r2.Close()
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("fig2", "go_like", []byte("row"), 0)
	j.Close()
	_, err = ResumeJournal(OS{}, path, "v1 exp=fig9 size=6 bench= live=false check=false")
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume under different config: %v, want ErrJournalMismatch", err)
	}
}

// TestJournalCorruptHeaderQuarantined: an unreadable header means the
// journal cannot be trusted at all — it is renamed aside and a fresh
// run starts, rather than failing the resume.
func TestJournalCorruptHeaderQuarantined(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("fig2", "go_like", []byte("row"), 0)
	j.Close()
	data, _ := os.ReadFile(path)
	data[2] ^= 0xff // damage the magic
	os.WriteFile(path, data, 0o644)

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("resume over corrupt header: %v", err)
	}
	defer r.Close()
	if r.Resumed() != 0 {
		t.Fatalf("corrupt journal yielded %d cells", r.Resumed())
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Fatalf("corrupt journal not quarantined: %v", serr)
	}
}

// TestJournalOldVersionQuarantined: a version-1 journal (no per-cell
// seconds) is quarantined on resume and the run starts a fresh journal,
// rather than failing or misparsing records under the v2 layout.
func TestJournalOldVersionQuarantined(t *testing.T) {
	path := journalFile(t)
	j, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("fig2", "go_like", []byte("row"), 1)
	j.Close()
	data, _ := os.ReadFile(path)
	// Rewrite the header as version 1 and fix its checksum so only the
	// version differs from a healthy journal.
	data[4] = 1
	fpLen := int(uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24)
	crc := crc32.Checksum(data[:12+fpLen], castagnoli)
	binary.LittleEndian.PutUint32(data[12+fpLen:], crc)
	os.WriteFile(path, data, 0o644)

	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatalf("resume over v1 journal: %v", err)
	}
	defer r.Close()
	if r.Resumed() != 0 {
		t.Fatalf("v1 journal yielded %d cells", r.Resumed())
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Fatalf("v1 journal not quarantined: %v", serr)
	}
}

// TestJournalCreateDiscardsPrevious: a run without -resume must not
// inherit cells from an earlier journal.
func TestJournalCreateDiscardsPrevious(t *testing.T) {
	path := journalFile(t)
	j, _ := CreateJournal(OS{}, path, testFP)
	j.Record("fig2", "go_like", []byte("stale"), 0)
	j.Close()
	j2, err := CreateJournal(OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("fig2", "go_like"); ok {
		t.Fatal("fresh journal inherited a stale cell")
	}
	r, err := ResumeJournal(OS{}, path, testFP)
	if err != nil || r.Resumed() != 0 {
		t.Fatalf("reload of fresh journal: %d cells, %v", r.Resumed(), err)
	}
	r.Close()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
