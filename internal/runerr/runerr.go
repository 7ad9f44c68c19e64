// Package runerr is the error taxonomy of the resilient experiment
// harness. Every way a workload simulation can fail mid-suite — a panic
// in a worker goroutine, the run's deadline passing, a canceled run, a
// corrupt recorded stream — maps to one sentinel here, wrapped in
// a WorkloadError that names the workload (and, once known, the
// experiment) it came from. Callers branch with errors.Is and render
// with errors.As; nothing in this package depends on the rest of the
// repository, so every layer (trace, funcsim, experiments, cmd) can
// share the taxonomy without import cycles.
package runerr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
)

// Sentinel classes of workload failure. WorkloadError wraps exactly one
// of these (or a simulator error that fits no class), so
// errors.Is(err, runerr.ErrDeadline) etc. works through any number of
// fmt.Errorf("%w") layers.
var (
	// ErrWorkloadPanic: a worker goroutine panicked; the panic was
	// recovered and converted instead of crashing the suite.
	ErrWorkloadPanic = errors.New("workload panicked")

	// ErrDeadline: the run's deadline (-timeout) passed while this
	// workload was in flight.
	ErrDeadline = errors.New("deadline exceeded")

	// ErrCanceled: the whole run was canceled (Ctrl-C or run timeout)
	// while this workload was in flight.
	ErrCanceled = errors.New("run canceled")

	// ErrTraceCorrupt: a recorded stream failed its integrity check
	// (event counts inconsistent with the execution profile).
	ErrTraceCorrupt = errors.New("trace stream corrupt")

	// ErrStoreCorrupt: a durable artifact (an on-disk recording) failed
	// its integrity check — bad magic, unsupported version, a chunk
	// checksum mismatch, or tallies inconsistent with the header. The store quarantines the file and the harness falls
	// back to live re-recording; the bad bytes are never served.
	ErrStoreCorrupt = errors.New("stored artifact corrupt")

	// ErrDiskFault: a filesystem operation against the artifact store
	// failed (read error, write error, rename failure, out of space). A
	// failed load is served as a miss and the job records; a failed
	// save loses persistence for that artifact. Either way the
	// in-memory run continues.
	ErrDiskFault = errors.New("artifact store I/O failed")
)

// WorkloadError is a failure attributed to one workload of one
// experiment. Experiment is stamped by the experiment registry once the
// error crosses that layer; lower layers leave it empty.
type WorkloadError struct {
	Workload   string
	Experiment string
	Err        error
}

// Error renders "experiment/workload: cause" (experiment omitted until
// stamped).
func (e *WorkloadError) Error() string {
	if e.Experiment != "" {
		return fmt.Sprintf("%s/%s: %v", e.Experiment, e.Workload, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Workload, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *WorkloadError) Unwrap() error { return e.Err }

// New wraps err as a WorkloadError for the named workload. An err that
// already is a *WorkloadError is returned as-is (the innermost
// attribution wins), so layered wrapping cannot double-prefix.
func New(workload string, err error) *WorkloadError {
	var we *WorkloadError
	if errors.As(err, &we) {
		return we
	}
	return &WorkloadError{Workload: workload, Err: err}
}

// maxStack bounds how much of a recovered panic's stack is kept in the
// error (full dumps are multi-KB and drown the failure summary).
const maxStack = 2048

// FromPanic converts a recovered panic value (and its debug.Stack dump)
// into a typed ErrWorkloadPanic for the named workload.
func FromPanic(workload string, recovered any, stack []byte) *WorkloadError {
	stack = bytes.TrimSpace(stack)
	if len(stack) > maxStack {
		stack = append(stack[:maxStack], "..."...)
	}
	return &WorkloadError{
		Workload: workload,
		Err:      fmt.Errorf("%w: %v\n%s", ErrWorkloadPanic, recovered, stack),
	}
}

// Classify maps context errors onto the harness taxonomy: a deadline
// becomes ErrDeadline, a cancellation ErrCanceled; anything else passes
// through unchanged. The original error stays wrapped, so
// errors.Is(err, context.DeadlineExceeded) keeps working too.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		if errors.Is(err, ErrDeadline) {
			return err
		}
		return fmt.Errorf("%w (%w)", ErrDeadline, err)
	case errors.Is(err, context.Canceled):
		if errors.Is(err, ErrCanceled) {
			return err
		}
		return fmt.Errorf("%w (%w)", ErrCanceled, err)
	}
	return err
}
