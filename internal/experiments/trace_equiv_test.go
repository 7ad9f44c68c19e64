package experiments

import (
	"fmt"
	"testing"
)

// TestTraceReplayEquivalence: for representative workloads the
// trace-replay path must produce bit-identical results to live
// simulation — same row structs, same rendered text. -check compares
// every replayed event with a fresh recording on the baseline
// interpreter, so a checked run that succeeds replayed the live stream,
// and its result must equal the plain run's.
func TestTraceReplayEquivalence(t *testing.T) {
	recorded := subset("gcc", "tom", "hyd")
	checked := recorded
	checked.Check = true

	for _, id := range []string{"fig2", "fig5", "table51"} {
		e, _ := ByID(id)
		want, err := e.Run(checked)
		if err != nil {
			t.Fatalf("%s checked: %v", id, err)
		}
		got, err := e.Run(recorded)
		if err != nil {
			t.Fatalf("%s recorded: %v", id, err)
		}
		// %#v rather than reflect.DeepEqual: Workload carries a generator
		// func, and DeepEqual calls any non-nil func unequal.
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s: replayed result diverges from checked:\n got %#v\nwant %#v", id, got, want)
		}
		if got.String() != want.String() {
			t.Errorf("%s: rendered output differs:\n--- checked ---\n%s--- replayed ---\n%s",
				id, want.String(), got.String())
		}
	}
}
