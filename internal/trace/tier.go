package trace

// Key identifies one recorded stream: a workload name, its size
// parameter, and the instruction budget the recording ran under. Any of
// those changing changes the committed reference stream, so all three
// are part of the identity. Timing distinguishes the two recording
// shapes: false keys a memory-event Stream, true an instruction-level
// IStream (the timing experiments' replay source).
type Key struct {
	Workload string
	Size     int
	MaxInsts uint64
	Timing   bool
}

// Cached is a recording a Tier can hold: any recording that can report
// its resident size. Stream and IStream satisfy it.
type Cached interface {
	Bytes() int64
}

// Tier is a durable home for recordings, consulted by key. Load
// returns (nil, nil) when the tier has nothing for the key; a caller
// treats any error as a miss and records instead, since the tier owns
// quarantining whatever produced it. Store failures are likewise
// non-fatal to a caller: the run continues with the recording it has.
// Quarantine drops what the tier holds for a key, for a recording the
// caller loaded and then found wrong, so no later Load serves it.
// A Tier must be safe for concurrent use.
type Tier interface {
	Load(Key) (Cached, error)
	Store(Key, Cached) error
	Quarantine(Key)
}
