// Package funcsim is the functional (architectural) simulator: a fast
// in-order interpreter for the ISA with observer hooks on the committed
// load/store stream.
//
// All non-timing experiments in the paper (Sections 2 and 5.2–5.5) operate
// on the committed memory reference stream, so they run on this simulator;
// only Section 5.6 needs the out-of-order timing model in
// internal/pipeline.
package funcsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rarpred/internal/isa"
	"rarpred/internal/mem"
	"rarpred/internal/metrics"
)

// InstsCommitted counts instructions committed by every functional
// simulation in the process (the -progress Minsts/s source). The
// Step-driven recording loops in internal/trace add to the same
// instrument by name, so one counter covers all architectural
// execution. Run flushes in InterruptEvery batches — at poll points
// and on exit — so the hot loop pays nothing per instruction.
var InstsCommitted = metrics.Default().Counter("funcsim.insts_committed")

// MemEvent describes one committed memory access.
type MemEvent struct {
	PC    uint32 // instruction address of the load or store
	Addr  uint32 // effective (word-aligned) address
	Value uint32 // word read or written
}

// Counts aggregates dynamic execution statistics.
type Counts struct {
	Insts    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Taken    uint64
	Calls    uint64
}

// LoadFrac returns the fraction of dynamic instructions that are loads.
func (c Counts) LoadFrac() float64 {
	if c.Insts == 0 {
		return 0
	}
	return float64(c.Loads) / float64(c.Insts)
}

// StoreFrac returns the fraction of dynamic instructions that are stores.
func (c Counts) StoreFrac() float64 {
	if c.Insts == 0 {
		return 0
	}
	return float64(c.Stores) / float64(c.Insts)
}

// ErrMaxInsts is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrMaxInsts = errors.New("funcsim: instruction budget exhausted")

// Sim is a functional simulator instance. Create one with New.
type Sim struct {
	Prog *isa.Program
	Mem  *mem.Memory
	Reg  [isa.NumRegs]uint32
	PC   uint32

	Halted bool
	Counts Counts

	// OnLoad and OnStore, when non-nil, observe every committed memory
	// access in program order. Observers must not mutate the simulator.
	OnLoad  func(MemEvent)
	OnStore func(MemEvent)

	// Interrupt, when non-nil, is polled by Run every InterruptEvery
	// committed instructions (and once before the first); a non-nil
	// return stops the run with that error wrapped. This is how the
	// harness cancels a runaway simulation and how fault injection
	// reaches the interpreter loop; the hook is never called while the
	// simulator state is mid-instruction, so a stopped Sim is always at
	// a committed boundary.
	Interrupt func() error
}

// InterruptEvery is the interrupt poll interval of Run, in committed
// instructions: coarse enough that polling is invisible next to the exec
// switch, fine enough that cancellation lands within ~100µs of wall
// time at the interpreter's throughput.
const InterruptEvery = 1 << 14

// New returns a simulator with the program's data image loaded and the PC
// at the entry point. The stack pointer (R29) is initialised to StackTop.
// The data segment and the top of the stack are reserved as flat memory
// ranges so the hot accesses bypass the page map.
func New(prog *isa.Program) *Sim { return newSim(prog, true) }

// NewPaged returns a simulator identical to New except that no flat
// memory ranges are reserved: every access walks the page map. This was
// the only configuration before the memory fast path existed; it is kept
// as the baseline interpreter, the independent recording -check's oracle
// compares against (see trace.RecordStreamBaselineContext).
func NewPaged(prog *isa.Program) *Sim { return newSim(prog, false) }

func newSim(prog *isa.Program, reserve bool) *Sim {
	s := &Sim{Prog: prog, Mem: mem.New(), PC: prog.Entry}
	if reserve {
		s.Mem.Reserve(prog.DataBase, len(prog.Data))
		s.Mem.Reserve(StackTop-stackReserve, stackReserve/4)
	}
	if err := s.Mem.LoadImage(prog.DataBase, prog.Data); err != nil {
		panic(err) // DataBase is a package constant and always aligned
	}
	s.Reg[isa.R29] = StackTop
	return s
}

// StackTop is the initial stack pointer. The stack grows down and is
// disjoint from the data segment.
const StackTop uint32 = 0x7fff_fff0

// stackReserve is how many bytes below StackTop are pre-reserved as flat
// memory. Deeper stacks still work through the paged fallback.
const stackReserve = 64 << 10

func f32(bits uint32) float32 { return math.Float32frombits(bits) }
func bits(f float32) uint32   { return math.Float32bits(f) }
func sgn(v uint32) int32      { return int32(v) }
func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Step executes one instruction. It is a no-op once Halted.
func (s *Sim) Step() error {
	if s.Halted {
		return nil
	}
	in, ok := s.Prog.InstAt(s.PC)
	if !ok {
		return fmt.Errorf("funcsim: PC 0x%08x outside text segment", s.PC)
	}
	next, err := s.exec(in, s.PC)
	if err != nil {
		return err
	}
	s.Counts.Insts++
	s.PC = next
	return nil
}

// StepIn executes in as the instruction at the current PC, committing it
// exactly as Step would. It is the hook for callers that predecode the
// text segment themselves (the timing-trace recorder): the caller owns
// the PC-to-instruction lookup and its bounds check, StepIn owns the
// architectural step. It is a no-op once Halted.
func (s *Sim) StepIn(in isa.Inst) error {
	if s.Halted {
		return nil
	}
	next, err := s.exec(in, s.PC)
	if err != nil {
		return err
	}
	s.Counts.Insts++
	s.PC = next
	return nil
}

// exec executes in, fetched at pc, and returns the next PC. It updates
// registers, memory, and all counters except Counts.Insts, which the
// caller commits; on halt it sets Halted and returns pc unchanged. Both
// Step and the Run fast loop funnel through here so the two paths cannot
// diverge.
func (s *Sim) exec(in isa.Inst, pc uint32) (uint32, error) {
	next := pc + 4
	r := &s.Reg

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		s.set(in.Rd, r[in.Rs]+r[in.Rt])
	case isa.OpSub:
		s.set(in.Rd, r[in.Rs]-r[in.Rt])
	case isa.OpMul:
		s.set(in.Rd, uint32(sgn(r[in.Rs])*sgn(r[in.Rt])))
	case isa.OpDiv:
		s.set(in.Rd, divw(r[in.Rs], r[in.Rt]))
	case isa.OpRem:
		s.set(in.Rd, remw(r[in.Rs], r[in.Rt]))
	case isa.OpAnd:
		s.set(in.Rd, r[in.Rs]&r[in.Rt])
	case isa.OpOr:
		s.set(in.Rd, r[in.Rs]|r[in.Rt])
	case isa.OpXor:
		s.set(in.Rd, r[in.Rs]^r[in.Rt])
	case isa.OpNor:
		s.set(in.Rd, ^(r[in.Rs] | r[in.Rt]))
	case isa.OpSll:
		s.set(in.Rd, r[in.Rs]<<(r[in.Rt]&31))
	case isa.OpSrl:
		s.set(in.Rd, r[in.Rs]>>(r[in.Rt]&31))
	case isa.OpSra:
		s.set(in.Rd, uint32(sgn(r[in.Rs])>>(r[in.Rt]&31)))
	case isa.OpSlt:
		s.set(in.Rd, boolWord(sgn(r[in.Rs]) < sgn(r[in.Rt])))
	case isa.OpSltu:
		s.set(in.Rd, boolWord(r[in.Rs] < r[in.Rt]))

	case isa.OpAddi:
		s.set(in.Rd, r[in.Rs]+uint32(in.Imm))
	case isa.OpAndi:
		s.set(in.Rd, r[in.Rs]&uint32(in.Imm))
	case isa.OpOri:
		s.set(in.Rd, r[in.Rs]|uint32(in.Imm))
	case isa.OpXori:
		s.set(in.Rd, r[in.Rs]^uint32(in.Imm))
	case isa.OpSlti:
		s.set(in.Rd, boolWord(sgn(r[in.Rs]) < in.Imm))
	case isa.OpSlli:
		s.set(in.Rd, r[in.Rs]<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		s.set(in.Rd, r[in.Rs]>>(uint32(in.Imm)&31))
	case isa.OpSrai:
		s.set(in.Rd, uint32(sgn(r[in.Rs])>>(uint32(in.Imm)&31)))
	case isa.OpLui:
		s.set(in.Rd, uint32(in.Imm)<<16)

	case isa.OpLw, isa.OpFlw:
		addr := r[in.Rs] + uint32(in.Imm)
		v, err := s.Mem.LoadWord(addr)
		if err != nil {
			return 0, fmt.Errorf("funcsim: pc 0x%08x: %w", pc, err)
		}
		s.set(in.Rd, v)
		s.Counts.Loads++
		if s.OnLoad != nil {
			s.OnLoad(MemEvent{PC: pc, Addr: addr, Value: v})
		}
	case isa.OpSw, isa.OpFsw:
		addr := r[in.Rs] + uint32(in.Imm)
		v := r[in.Rt]
		if err := s.Mem.StoreWord(addr, v); err != nil {
			return 0, fmt.Errorf("funcsim: pc 0x%08x: %w", pc, err)
		}
		s.Counts.Stores++
		if s.OnStore != nil {
			s.OnStore(MemEvent{PC: pc, Addr: addr, Value: v})
		}

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltz, isa.OpBgez:
		s.Counts.Branches++
		if evalBranch(in.Op, r[in.Rs], r[in.Rt]) {
			next = pc + 4 + uint32(in.Imm)*4
			s.Counts.Taken++
		}

	case isa.OpJ:
		next = isa.IndexPC(int(in.Imm))
	case isa.OpJal:
		s.set(in.Rd, pc+4)
		next = isa.IndexPC(int(in.Imm))
		s.Counts.Calls++
	case isa.OpJr:
		next = r[in.Rs]
	case isa.OpJalr:
		target := r[in.Rs]
		s.set(in.Rd, pc+4)
		next = target
		s.Counts.Calls++

	case isa.OpFadd:
		s.set(in.Rd, bits(f32(r[in.Rs])+f32(r[in.Rt])))
	case isa.OpFsub:
		s.set(in.Rd, bits(f32(r[in.Rs])-f32(r[in.Rt])))
	case isa.OpFmul:
		s.set(in.Rd, bits(f32(r[in.Rs])*f32(r[in.Rt])))
	case isa.OpFdiv:
		s.set(in.Rd, bits(f32(r[in.Rs])/f32(r[in.Rt])))
	case isa.OpFneg:
		s.set(in.Rd, bits(-f32(r[in.Rs])))
	case isa.OpFabs:
		s.set(in.Rd, bits(float32(math.Abs(float64(f32(r[in.Rs]))))))
	case isa.OpFmov:
		s.set(in.Rd, r[in.Rs])
	case isa.OpFcvtWS:
		s.set(in.Rd, bits(float32(sgn(r[in.Rs]))))
	case isa.OpFcvtSW:
		s.set(in.Rd, uint32(int32(f32(r[in.Rs]))))
	case isa.OpFeq:
		s.set(in.Rd, boolWord(f32(r[in.Rs]) == f32(r[in.Rt])))
	case isa.OpFlt:
		s.set(in.Rd, boolWord(f32(r[in.Rs]) < f32(r[in.Rt])))
	case isa.OpFle:
		s.set(in.Rd, boolWord(f32(r[in.Rs]) <= f32(r[in.Rt])))

	case isa.OpHalt:
		s.Halted = true
		return pc, nil

	default:
		return 0, fmt.Errorf("funcsim: pc 0x%08x: unimplemented op %v", pc, in.Op)
	}

	return next, nil
}

// EvalBranch reports whether a branch with the given operand values is
// taken. Exported for reuse by the timing simulator.
func EvalBranch(op isa.Op, rs, rt uint32) bool { return evalBranch(op, rs, rt) }

func evalBranch(op isa.Op, rs, rt uint32) bool {
	switch op {
	case isa.OpBeq:
		return rs == rt
	case isa.OpBne:
		return rs != rt
	case isa.OpBlt:
		return sgn(rs) < sgn(rt)
	case isa.OpBge:
		return sgn(rs) >= sgn(rt)
	case isa.OpBltz:
		return sgn(rs) < 0
	case isa.OpBgez:
		return sgn(rs) >= 0
	}
	return false
}

// DivW computes the ISA's division: signed quotient with division by zero
// defined to produce zero (the machine has no traps). Exported for the
// timing simulator.
func DivW(a, b uint32) uint32 { return divw(a, b) }

// RemW computes the ISA's remainder, with remainder by zero defined as the
// dividend.
func RemW(a, b uint32) uint32 { return remw(a, b) }

func divw(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	if uint32(a) == 0x8000_0000 && sgn(b) == -1 {
		return a // overflow case: INT_MIN / -1 wraps
	}
	return uint32(sgn(a) / sgn(b))
}

func remw(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	if uint32(a) == 0x8000_0000 && sgn(b) == -1 {
		return 0
	}
	return uint32(sgn(a) % sgn(b))
}

func (s *Sim) set(rd isa.Reg, v uint32) {
	if rd == isa.R0 {
		return
	}
	s.Reg[rd] = v
}

// Run executes until halt or until max instructions have committed (0
// means no limit). It returns ErrMaxInsts if the budget ran out first.
//
// Run is the interpreter's hot loop: it walks the predecoded text
// segment directly (one bounds check against a hoisted limit instead of
// an InstAt call per instruction) and funnels execution through the same
// exec switch as Step.
func (s *Sim) Run(max uint64) error {
	insts := s.Prog.Insts
	limit := uint32(len(insts)) * 4
	countdown := 0 // polls Interrupt on the first iteration, then every InterruptEvery
	flushed := s.Counts.Insts
	defer func() { InstsCommitted.Add(s.Counts.Insts - flushed) }()
	for !s.Halted {
		if max != 0 && s.Counts.Insts >= max {
			return ErrMaxInsts
		}
		if s.Interrupt != nil {
			if countdown == 0 {
				countdown = InterruptEvery
				InstsCommitted.Add(s.Counts.Insts - flushed)
				flushed = s.Counts.Insts
				if err := s.Interrupt(); err != nil {
					return fmt.Errorf("funcsim: interrupted after %d insts: %w", s.Counts.Insts, err)
				}
			}
			countdown--
		}
		pc := s.PC
		if pc >= limit || pc&3 != 0 {
			return fmt.Errorf("funcsim: PC 0x%08x outside text segment", pc)
		}
		next, err := s.exec(insts[pc>>2], pc)
		if err != nil {
			return err
		}
		s.Counts.Insts++
		s.PC = next
	}
	return nil
}

// RunContext is Run with cancellation: ctx is polled alongside any
// installed Interrupt hook, every InterruptEvery committed instructions.
// A context that can never be canceled (Done() == nil, e.g.
// context.Background) adds no per-instruction cost.
func (s *Sim) RunContext(ctx context.Context, max uint64) error {
	if ctx.Done() == nil {
		return s.Run(max)
	}
	prev := s.Interrupt
	s.Interrupt = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prev != nil {
			return prev()
		}
		return nil
	}
	defer func() { s.Interrupt = prev }()
	return s.Run(max)
}

// RunProgram is a convenience that executes prog to completion (with a
// safety budget) and returns the final counts.
func RunProgram(prog *isa.Program, max uint64) (Counts, error) {
	s := New(prog)
	err := s.Run(max)
	return s.Counts, err
}
