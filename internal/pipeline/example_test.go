package pipeline_test

import (
	"fmt"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

// Example compares the base processor against the RAW+RAR mechanism on
// one workload, the Figure 9 measurement in miniature.
func Example() {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Assemble(6)

	base, err := pipeline.RunProgram(prog, pipeline.DefaultConfig())
	if err != nil {
		panic(err)
	}

	cfg := pipeline.DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	cfg.Cloak = &cc
	cfg.Bypassing = true
	cloaked, err := pipeline.RunProgram(prog, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Println("cloaking covered loads:", cloaked.SpecCorrect > 0)
	fmt.Println("cloaking saved cycles:", cloaked.Cycles < base.Cycles)
	// Output:
	// cloaking covered loads: true
	// cloaking saved cycles: true
}
