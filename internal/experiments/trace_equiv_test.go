package experiments

import (
	"fmt"
	"testing"
)

// TestTraceReplayEquivalence: for representative workloads the
// trace-replay path must produce bit-identical results to live
// simulation — same row structs, same rendered text.
func TestTraceReplayEquivalence(t *testing.T) {
	recorded := subset("gcc", "tom", "hyd")
	live := recorded
	live.Live = true

	for _, id := range []string{"fig2", "fig5", "table51"} {
		e, _ := ByID(id)
		want, err := e.Run(live)
		if err != nil {
			t.Fatalf("%s live: %v", id, err)
		}
		got, err := e.Run(recorded)
		if err != nil {
			t.Fatalf("%s recorded: %v", id, err)
		}
		// %#v rather than reflect.DeepEqual: Workload carries a generator
		// func, and DeepEqual calls any non-nil func unequal.
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s: replayed result diverges from live:\n got %#v\nwant %#v", id, got, want)
		}
		if got.String() != want.String() {
			t.Errorf("%s: rendered output differs:\n--- live ---\n%s--- replayed ---\n%s",
				id, want.String(), got.String())
		}
	}
}
