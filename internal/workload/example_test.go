package workload_test

import (
	"fmt"

	"rarpred/internal/funcsim"
	"rarpred/internal/workload"
)

// Example runs one benchmark of the SPEC95-analog suite.
func Example() {
	w, _ := workload.ByAbbrev("com")
	counts, err := funcsim.RunProgram(w.Assemble(2), 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(w.Name, "stands in for", w.Analog)
	fmt.Println("executed some instructions:", counts.Insts > 10_000)
	// Output:
	// com_like stands in for 129.compress
	// executed some instructions: true
}

// ExampleSynthetic builds a custom dependence stream: three covered RAR
// pairs per iteration and nothing else.
func ExampleSynthetic() {
	prog, err := workload.Synthetic(workload.SynthConfig{
		Iterations: 100,
		RARPairs:   3,
	})
	if err != nil {
		panic(err)
	}
	counts, _ := funcsim.RunProgram(prog, 0)
	fmt.Println("loads per iteration:", counts.Loads/100)
	// Output:
	// loads per iteration: 6
}
