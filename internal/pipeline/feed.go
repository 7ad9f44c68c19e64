package pipeline

import (
	"fmt"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
)

// committed is one committed dynamic instruction as the timing model
// consumes it: the instruction, where it was fetched, where control went
// next, what the machine found for it and — for loads and stores — the
// effective address, the word moved and the cloak engine's decision.
// The memory fields are meaningful only when the instruction is a
// memory operation, and Dec only when the Sim is cloaked.
type committed struct {
	Inst   isa.Inst
	PC     uint32
	NextPC uint32
	Addr   uint32
	Value  uint32
	Out    outcome
	Dec    cloak.Decision
}

// liveFeed feeds a Sim from New: it drives the functional interpreter
// one instruction at a time, observing its committed memory accesses
// into the caller's record and, for a cloaked Sim, deciding each access
// with the feed's own engine, then runs the instruction through the
// feed's own machine. A Sim from NewReplay is fed by a walk (Walk) over
// a recorded trace.IStream instead, which runs one machine and one
// engine per config for all its Sims; the outcomes and decisions agree
// because the machine and an engine see only the committed stream in
// program order. Either feed is purely an oracle, as the paper's
// methodology times a fixed committed stream: the timing model never
// influences what commits next.
type liveFeed struct {
	sim    *funcsim.Sim
	insts  []isa.Inst
	dec    []decoded
	limit  uint32
	mach   *machine
	engine *cloak.Engine // nil for the base processor
	cur    *committed    // destination of the in-flight next's mem observers
}

func newLiveFeed(prog *isa.Program, dec []decoded, cfg Config, sc bool) *liveFeed {
	f := &liveFeed{
		sim:   funcsim.New(prog),
		insts: prog.Insts,
		dec:   dec,
		limit: uint32(len(prog.Insts)) * 4,
		mach:  newMachine(cfg, sc),
	}
	if cfg.Cloak != nil {
		f.engine = cloak.New(*cfg.Cloak)
	}
	f.sim.OnLoad = func(e funcsim.MemEvent) {
		f.cur.Addr, f.cur.Value = e.Addr, e.Value
		if f.engine != nil {
			f.cur.Dec = f.engine.DecideLoad(e.PC, e.Addr, e.Value)
		}
	}
	f.sim.OnStore = func(e funcsim.MemEvent) {
		f.cur.Addr, f.cur.Value = e.Addr, e.Value
		if f.engine != nil {
			f.cur.Dec = f.engine.DecideStore(e.PC, e.Addr, e.Value)
		}
	}
	return f
}

// next fills st with the next committed instruction. ok=false means the
// program halted; a non-nil error aborts the run.
func (f *liveFeed) next(st *committed) (bool, error) {
	if f.sim.Halted {
		return false, nil
	}
	pc := f.sim.PC
	if pc >= f.limit || pc&3 != 0 {
		return false, fmt.Errorf("pipeline: PC 0x%08x outside text", pc)
	}
	f.cur = st
	st.PC = pc
	st.Inst = f.insts[pc>>2]
	if err := f.sim.StepIn(st.Inst); err != nil {
		return false, err
	}
	st.NextPC = f.sim.PC
	st.Out = f.mach.next(st.Inst, f.dec[pc>>2].kind, pc, st.NextPC, st.Addr)
	return true, nil
}
