// Command rarasm assembles, disassembles and runs programs for the
// simulated MIPS-like ISA.
//
// Usage:
//
//	rarasm -dis prog.s            # assemble and print a listing
//	rarasm -run prog.s            # assemble and execute functionally
//	rarasm -run -time prog.s      # execute on the cycle-level model
//	rarasm -run -cloak prog.s     # report cloaking behaviour as well
//	rarasm -run -savetrace t.rart prog.s  # record the memory trace as a store artifact
//	rarasm -workload gcc -dis     # operate on a built-in workload
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rarpred/internal/asm"
	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/pipeline"
	"rarpred/internal/store"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

func main() {
	var (
		dis      = flag.Bool("dis", false, "print a disassembly listing")
		runIt    = flag.Bool("run", false, "execute the program")
		timeIt   = flag.Bool("time", false, "with -run: use the cycle-level simulator")
		doCloak  = flag.Bool("cloak", false, "with -run: attach a RAW+RAR cloaking engine")
		maxInsts = flag.Uint64("max", 500_000_000, "instruction budget")
		wl       = flag.String("workload", "", "use a built-in workload instead of a source file")
		size     = flag.Int("size", 10, "workload size parameter (with -workload)")
		traceN   = flag.Uint64("trace", 0, "with -run: print the first N executed instructions with cloaking annotations")
		saveTr   = flag.String("savetrace", "", "with -run: record the memory trace to a file (store artifact format)")
	)
	flag.Parse()

	prog, name, err := loadProgram(*wl, *size, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rarasm:", err)
		os.Exit(1)
	}

	if *dis {
		disassemble(prog)
	}
	if !*runIt {
		if !*dis {
			fmt.Fprintln(os.Stderr, "rarasm: nothing to do (use -dis and/or -run)")
			os.Exit(2)
		}
		return
	}

	if *timeIt {
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = *maxInsts
		if *doCloak {
			cc := cloak.TimingConfig(cloak.ModeRAWRAR)
			cfg.Cloak = &cc
			cfg.Bypassing = true
		}
		res, err := pipeline.RunProgram(prog, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rarasm:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d instructions, %d cycles, IPC %.2f\n",
			name, res.Insts, res.Cycles, res.IPC())
		fmt.Printf("branches %d (%.1f%% predicted), mem violations %d\n",
			res.Branches, 100*res.BranchAcc, res.MemViolations)
		if *doCloak {
			fmt.Printf("cloaking: used %d, correct %d (RAW %d, RAR %d), wrong %d\n",
				res.SpecUsed, res.SpecCorrect, res.SpecRAW, res.SpecRAR, res.SpecWrong)
		}
		return
	}

	if *saveTr != "" {
		tr, err := trace.RecordStream(prog, *maxInsts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rarasm:", err)
			os.Exit(1)
		}
		if err := saveTrace(*saveTr, tr); err != nil {
			fmt.Fprintln(os.Stderr, "rarasm:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: recorded %d events (%d loads) over %d instructions to %s\n",
			name, tr.Len(), tr.Loads(), tr.Counts.Insts, *saveTr)
		return
	}

	sim := funcsim.New(prog)
	var engine *cloak.Engine
	if *doCloak || *traceN > 0 {
		engine = cloak.New(cloak.DefaultConfig())
		sim.OnLoad = func(e funcsim.MemEvent) {
			out := engine.Load(e.PC, e.Addr, e.Value)
			if sim.Counts.Insts < *traceN {
				note := ""
				switch {
				case out.Used && out.Correct:
					note = fmt.Sprintf("   <- covered (%s)", out.Kind)
				case out.Used:
					note = fmt.Sprintf("   <- MISSPECULATED (%s)", out.Kind)
				case out.Dep != cloak.DepNone:
					note = fmt.Sprintf("   (%s dependence detected)", out.Dep)
				}
				fmt.Printf("        load  [%08x] = %-10d%s\n", e.Addr, int32(e.Value), note)
			}
		}
		sim.OnStore = func(e funcsim.MemEvent) {
			engine.Store(e.PC, e.Addr, e.Value)
			if sim.Counts.Insts < *traceN {
				fmt.Printf("        store [%08x] = %d\n", e.Addr, int32(e.Value))
			}
		}
	}
	if *traceN > 0 {
		for sim.Counts.Insts < *traceN && !sim.Halted {
			pc := sim.PC
			in, ok := prog.InstAt(pc)
			if !ok {
				break
			}
			fmt.Printf("%06x: %s\n", pc, in)
			if err := sim.Step(); err != nil {
				fmt.Fprintln(os.Stderr, "rarasm:", err)
				os.Exit(1)
			}
		}
	}
	if err := sim.Run(*maxInsts); err != nil {
		fmt.Fprintln(os.Stderr, "rarasm:", err)
		os.Exit(1)
	}
	c := sim.Counts
	fmt.Printf("%s: %d instructions (%.1f%% loads, %.1f%% stores, %d branches)\n",
		name, c.Insts, 100*c.LoadFrac(), 100*c.StoreFrac(), c.Branches)
	if engine != nil {
		st := engine.Stats()
		fmt.Printf("cloaking: deps RAW %d / RAR %d; covered RAW %d / RAR %d; wrong %d\n",
			st.LoadsWithRAW, st.LoadsWithRAR, st.CorrectRAW, st.CorrectRAR, st.Mispredicted())
	}
}

// saveTrace writes tr to path as a store artifact, which
// store.DecodeStream reads back.
func saveTrace(path string, tr *trace.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := store.WriteStream(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func loadProgram(wl string, size int, args []string) (*isa.Program, string, error) {
	if wl != "" {
		w, ok := workload.ByAbbrev(wl)
		if !ok {
			return nil, "", fmt.Errorf("unknown workload %q", wl)
		}
		return w.Assemble(size), w.Name, nil
	}
	if len(args) != 1 {
		return nil, "", fmt.Errorf("expected one source file (or -workload)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, "", err
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return nil, "", err
	}
	return prog, args[0], nil
}

func disassemble(prog *isa.Program) {
	// Invert the symbol table for labels on instruction addresses.
	labels := map[uint32][]string{}
	for name, v := range prog.Symbols {
		if int(v/4) < len(prog.Insts) && v < prog.DataBase {
			labels[v] = append(labels[v], name)
		}
	}
	for i, in := range prog.Insts {
		pc := isa.IndexPC(i)
		ls := labels[pc]
		sort.Strings(ls)
		for _, l := range ls {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %06x:  %s\n", pc, in)
	}
	fmt.Printf("%d instructions, %d data words at %#x\n",
		len(prog.Insts), len(prog.Data), prog.DataBase)
}
