// Timing runs the cycle-level simulator on one workload under the three
// Section 5.6 configurations — base, RAW cloaking/bypassing, RAW+RAR
// cloaking/bypassing — and prints cycles, IPC and speedups, plus the
// squash-invalidation variant to show why selective recovery matters.
//
//	go run ./examples/timing [workload-abbrev]   (default: gcc)
package main

import (
	"fmt"
	"log"
	"os"

	"rarpred/internal/cloak"
	"rarpred/internal/pipeline"
	"rarpred/internal/workload"
)

func main() {
	abbrev := "gcc"
	if len(os.Args) > 1 {
		abbrev = os.Args[1]
	}
	w, ok := workload.ByAbbrev(abbrev)
	if !ok {
		log.Fatalf("unknown workload %q (one of: go m88 gcc com li ijp per vor "+
			"tom swm su2 hyd mgd apl trb aps fp* wav)", abbrev)
	}
	fmt.Printf("workload: %s (%s)\n%s\n\n", w.Name, w.Analog, w.Description)

	prog := w.Assemble(workload.TimingSize)
	run := func(label string, cfg pipeline.Config) pipeline.Result {
		res, err := pipeline.RunProgram(prog, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %9d cycles  IPC %.2f", label, res.Cycles, res.IPC())
		if res.SpecUsed > 0 {
			fmt.Printf("  covered %d (RAW %d, RAR %d) wrong %d",
				res.SpecCorrect, res.SpecRAW, res.SpecRAR, res.SpecWrong)
		}
		fmt.Println()
		return res
	}

	base := run("base", pipeline.DefaultConfig())

	cfgRAW := pipeline.DefaultConfig()
	ccRAW := cloak.TimingConfig(cloak.ModeRAW)
	cfgRAW.Cloak = &ccRAW
	cfgRAW.Bypassing = true
	raw := run("RAW cloaking", cfgRAW)

	cfgBoth := pipeline.DefaultConfig()
	ccBoth := cloak.TimingConfig(cloak.ModeRAWRAR)
	cfgBoth.Cloak = &ccBoth
	cfgBoth.Bypassing = true
	both := run("RAW+RAR cloaking", cfgBoth)

	cfgSquash := cfgBoth
	cfgSquash.Recovery = pipeline.Squash
	squash := run("RAW+RAR, squash recovery", cfgSquash)

	sp := func(r pipeline.Result) float64 {
		return 100 * (float64(base.Cycles)/float64(r.Cycles) - 1)
	}
	fmt.Println()
	fmt.Printf("speedup RAW:               %+.2f%%\n", sp(raw))
	fmt.Printf("speedup RAW+RAR:           %+.2f%%\n", sp(both))
	fmt.Printf("speedup RAW+RAR (squash):  %+.2f%%\n", sp(squash))
}
