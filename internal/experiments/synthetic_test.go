package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rarpred/internal/workload"
)

// countRow is the cell output of the synthetic experiments the tests
// build.
type countRow struct {
	workload.Workload
	Value int
}

// countResult renders rows deterministically for output comparison.
type countResult struct{ lines []string }

func (r countResult) String() string { return strings.Join(r.lines, "\n") + "\n" }

// idLines is the assembler of the synthetic experiment id: one
// "id workload=value" line per row.
func idLines(id string) func([]workload.Workload, []countRow) Result {
	return func(_ []workload.Workload, rows []countRow) Result {
		res := countResult{}
		for _, r := range rows {
			res.lines = append(res.lines, fmt.Sprintf("%s %s=%d", id, r.Name, r.Value))
		}
		return res
	}
}

// runSuite runs the suite and fails the test if any experiment fails.
func runSuite(t *testing.T, opt Options, exps []Experiment) {
	t.Helper()
	RunSuite(opt, exps, func(item SuiteItem) bool {
		if item.Err != nil {
			t.Fatalf("suite item %s failed: %v", item.Exp.ID, item.Err)
		}
		return true
	})
}
