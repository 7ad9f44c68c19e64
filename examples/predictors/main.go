// Predictors demonstrates the prediction structures directly, without a
// simulated program: a hand-fed access stream drives the DDT, DPNT and
// Synonym File exactly through the steps of the paper's Figure 4, and a
// workload drives the Section 2 locality analysis.
//
//	go run ./examples/predictors
package main

import (
	"fmt"
	"log"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/locality"
	"rarpred/internal/workload"
)

func figure4Walkthrough() {
	fmt.Println("== Figure 4 walkthrough: detecting and exploiting one RAR dependence")

	ddt := cloak.NewDDT(128, true)
	dpnt := cloak.NewDPNT(0, 0, cloak.Adaptive2Bit, cloak.MergeIncremental)
	sf := cloak.NewSynonymFile(0, 0)

	const ld, ldPrime = 0x100, 0x140 // the two static loads
	addr1, addr2 := uint32(0x2000), uint32(0x3000)

	// First encounter (Figure 4a): LD accesses addr1 and is recorded in
	// the DDT (action a); LD' accesses the same address and finds it
	// (action b) — a RAR dependence, so both get a synonym in the DPNT
	// (action 1).
	if _, ok := ddt.Load(addr1, ld); ok {
		log.Fatal("unexpected dependence on first access")
	}
	dep, ok := ddt.Load(addr1, ldPrime)
	fmt.Printf("detected: %s dependence (source %#x, sink %#x), found=%v\n",
		dep.Kind, dep.SourcePC, dep.SinkPC, ok)
	syn := dpnt.RecordDependence(dep)
	fmt.Printf("assigned synonym %d to both loads\n", syn)

	// Second encounter (Figure 4b), now at a different address. LD is
	// predicted as a producer (action 2), allocates SF storage (3) and
	// deposits the value it reads from memory (4).
	pred, _ := dpnt.Lookup(ld)
	fmt.Printf("LD  prediction: producer=%v (a load producer: %v)\n",
		pred.Producer, dpnt.ProducerIsLoad(ld))
	sf.Allocate(pred.Synonym)
	valueFromMemory := uint32(42)
	sf.Write(pred.Synonym, valueFromMemory, cloak.DepRAR, ld)

	// LD' is predicted as a consumer (action 5) and obtains the value
	// through the synonym (action 6) — before calculating its address.
	pred2, _ := dpnt.Lookup(ldPrime)
	fmt.Printf("LD' prediction: consumer=%v, synonym=%d\n", pred2.Consumer, pred2.Synonym)
	entry, _ := sf.Read(pred2.Synonym)
	fmt.Printf("LD' speculative value: %d (full=%v)\n", entry.Value, entry.Full)

	// Verification (action 8): the memory access completes and matches.
	actual := valueFromMemory
	dpnt.VerifyConsumer(ldPrime, entry.Value == actual)
	fmt.Printf("verified: correct=%v (addr changed %#x -> %#x, prediction is PC-based)\n",
		entry.Value == actual, addr1, addr2)
	fmt.Println()
}

func localityAnalysis() {
	fmt.Println("== Section 2 analysis: RAR dependence locality of one workload")
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Assemble(10)

	windows := []int{0, locality.MaxDepth * 1024} // infinite and 4K
	analyzers := make([]*locality.RARLocality, len(windows))
	for i, win := range windows {
		analyzers[i] = locality.NewRARLocality(win)
	}
	sim := funcsim.New(prog)
	sim.OnLoad = func(e funcsim.MemEvent) {
		for _, a := range analyzers {
			a.Load(e.PC, e.Addr)
		}
	}
	sim.OnStore = func(e funcsim.MemEvent) {
		for _, a := range analyzers {
			a.Store(e.PC, e.Addr)
		}
	}
	if err := sim.Run(50_000_000); err != nil {
		log.Fatal(err)
	}
	for i, a := range analyzers {
		name := "infinite window"
		if windows[i] != 0 {
			name = fmt.Sprintf("%d-entry window", windows[i])
		}
		fmt.Printf("%-16s sink loads %8d | locality(1..4):", name, a.SinkLoads())
		for n := 1; n <= locality.MaxDepth; n++ {
			fmt.Printf(" %5.1f%%", 100*a.Locality(n))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("high locality(1) is what makes a last-dependence predictor work.")
}

func main() {
	figure4Walkthrough()
	localityAnalysis()
}
