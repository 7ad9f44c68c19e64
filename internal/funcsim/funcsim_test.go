package funcsim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rarpred/internal/asm"
	"rarpred/internal/isa"
)

func run(t *testing.T, src string) *Sim {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestArithLoop(t *testing.T) {
	s := run(t, `
main:   li   r1, 10
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if s.Reg[isa.R2] != 55 {
		t.Errorf("sum = %d, want 55", s.Reg[isa.R2])
	}
	if !s.Halted {
		t.Error("not halted")
	}
}

func TestR0HardwiredZero(t *testing.T) {
	s := run(t, "main: addi r0, r0, 7\n add r1, r0, r0\n halt")
	if s.Reg[isa.R0] != 0 || s.Reg[isa.R1] != 0 {
		t.Errorf("r0 = %d, r1 = %d", s.Reg[isa.R0], s.Reg[isa.R1])
	}
}

func TestMemoryOps(t *testing.T) {
	s := run(t, `
        .data
tab:    .word 11, 22, 33
        .text
main:   la   r1, tab
        lw   r2, 4(r1)
        sw   r2, 8(r1)
        lw   r3, 8(r1)
        halt`)
	if s.Reg[isa.R2] != 22 || s.Reg[isa.R3] != 22 {
		t.Errorf("r2=%d r3=%d", s.Reg[isa.R2], s.Reg[isa.R3])
	}
	if s.Counts.Loads != 2 || s.Counts.Stores != 1 {
		t.Errorf("counts = %+v", s.Counts)
	}
}

func TestObserversSeeProgramOrder(t *testing.T) {
	p := asm.MustAssemble(`
        .data
tab:    .word 5
        .text
main:   la   r1, tab
        lw   r2, 0(r1)
        addi r2, r2, 1
        sw   r2, 0(r1)
        lw   r3, 0(r1)
        halt`)
	s := New(p)
	var events []MemEvent
	var kinds []byte
	s.OnLoad = func(e MemEvent) { events = append(events, e); kinds = append(kinds, 'L') }
	s.OnStore = func(e MemEvent) { events = append(events, e); kinds = append(kinds, 'S') }
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if string(kinds) != "LSL" {
		t.Fatalf("event kinds = %s, want LSL", kinds)
	}
	if events[0].Value != 5 || events[1].Value != 6 || events[2].Value != 6 {
		t.Errorf("values = %v", events)
	}
	if events[0].Addr != events[1].Addr || events[1].Addr != events[2].Addr {
		t.Errorf("addresses differ: %v", events)
	}
	if events[0].PC == events[2].PC {
		t.Error("two static loads share a PC")
	}
}

func TestCallReturn(t *testing.T) {
	s := run(t, `
main:   li   r4, 3
        call double
        call double
        halt
double: add  r4, r4, r4
        ret`)
	if s.Reg[isa.R4] != 12 {
		t.Errorf("r4 = %d, want 12", s.Reg[isa.R4])
	}
	if s.Counts.Calls != 2 {
		t.Errorf("calls = %d", s.Counts.Calls)
	}
}

func TestFloatingPoint(t *testing.T) {
	s := run(t, `
        .data
a:      .float 1.5
b:      .float 2.25
        .text
main:   la   r1, a
        flw  f1, 0(r1)
        flw  f2, 4(r1)
        fadd f3, f1, f2
        fmul f4, f1, f2
        fdiv f5, f2, f1
        fsub f6, f2, f1
        flt  r2, f1, f2
        feq  r3, f1, f1
        halt`)
	get := func(r isa.Reg) float32 { return math.Float32frombits(s.Reg[r]) }
	if get(isa.F(3)) != 3.75 {
		t.Errorf("fadd = %v", get(isa.F(3)))
	}
	if get(isa.F(4)) != 3.375 {
		t.Errorf("fmul = %v", get(isa.F(4)))
	}
	if get(isa.F(5)) != 1.5 {
		t.Errorf("fdiv = %v", get(isa.F(5)))
	}
	if get(isa.F(6)) != 0.75 {
		t.Errorf("fsub = %v", get(isa.F(6)))
	}
	if s.Reg[isa.R2] != 1 || s.Reg[isa.R3] != 1 {
		t.Errorf("flt=%d feq=%d", s.Reg[isa.R2], s.Reg[isa.R3])
	}
}

func TestFPConversions(t *testing.T) {
	s := run(t, `
main:   li   r1, -7
        fcvt.w.s f1, r1
        fcvt.s.w r2, f1
        halt`)
	if math.Float32frombits(s.Reg[isa.F(1)]) != -7.0 {
		t.Errorf("cvt to fp = %v", math.Float32frombits(s.Reg[isa.F(1)]))
	}
	if int32(s.Reg[isa.R2]) != -7 {
		t.Errorf("cvt to int = %d", int32(s.Reg[isa.R2]))
	}
}

func TestDivByZeroDefined(t *testing.T) {
	s := run(t, `
main:   li   r1, 9
        div  r2, r1, r0
        rem  r3, r1, r0
        halt`)
	if s.Reg[isa.R2] != 0 {
		t.Errorf("div by zero = %d, want 0", s.Reg[isa.R2])
	}
	if s.Reg[isa.R3] != 9 {
		t.Errorf("rem by zero = %d, want dividend", s.Reg[isa.R3])
	}
}

func TestDivOverflowDefined(t *testing.T) {
	if DivW(0x8000_0000, uint32(0xffff_ffff)) != 0x8000_0000 {
		t.Error("INT_MIN / -1 not defined to wrap")
	}
	if RemW(0x8000_0000, uint32(0xffff_ffff)) != 0 {
		t.Error("INT_MIN %% -1 not zero")
	}
}

func TestBranchSemantics(t *testing.T) {
	cases := []struct {
		op     isa.Op
		rs, rt uint32
		want   bool
	}{
		{isa.OpBeq, 3, 3, true},
		{isa.OpBeq, 3, 4, false},
		{isa.OpBne, 3, 4, true},
		{isa.OpBlt, uint32(0xffffffff), 0, true},  // -1 < 0 signed
		{isa.OpBge, 0, uint32(0xffffffff), true},  // 0 >= -1 signed
		{isa.OpBltz, uint32(0x80000000), 0, true}, // most negative
		{isa.OpBgez, 0, 0, true},
		{isa.OpBltz, 1, 0, false},
	}
	for _, c := range cases {
		if got := EvalBranch(c.op, c.rs, c.rt); got != c.want {
			t.Errorf("EvalBranch(%v, %#x, %#x) = %v, want %v", c.op, c.rs, c.rt, got, c.want)
		}
	}
}

func TestShifts(t *testing.T) {
	s := run(t, `
main:   li   r1, -16
        srai r2, r1, 2
        srli r3, r1, 2
        slli r4, r1, 1
        halt`)
	if int32(s.Reg[isa.R2]) != -4 {
		t.Errorf("srai = %d", int32(s.Reg[isa.R2]))
	}
	if s.Reg[isa.R3] != 0x3ffffffc {
		t.Errorf("srli = %#x", s.Reg[isa.R3])
	}
	if int32(s.Reg[isa.R4]) != -32 {
		t.Errorf("slli = %d", int32(s.Reg[isa.R4]))
	}
}

func TestMaxInstsBudget(t *testing.T) {
	p := asm.MustAssemble("main: j main") // infinite loop
	s := New(p)
	if err := s.Run(100); err != ErrMaxInsts {
		t.Errorf("err = %v, want ErrMaxInsts", err)
	}
	if s.Counts.Insts != 100 {
		t.Errorf("executed %d insts", s.Counts.Insts)
	}
}

func TestPCOutOfRange(t *testing.T) {
	p := asm.MustAssemble("main: nop") // runs off the end
	s := New(p)
	s.Step() // nop ok
	if err := s.Step(); err == nil {
		t.Error("running off the end did not error")
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	s := run(t, "main: halt")
	before := s.Counts
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Counts != before {
		t.Error("Step after halt changed state")
	}
}

func TestCountsFractions(t *testing.T) {
	s := run(t, `
        .data
x:      .word 1
        .text
main:   la   r1, x
        lw   r2, 0(r1)
        sw   r2, 0(r1)
        halt`)
	c := s.Counts
	if c.LoadFrac() <= 0 || c.LoadFrac() >= 1 {
		t.Errorf("LoadFrac = %v", c.LoadFrac())
	}
	if c.StoreFrac() <= 0 || c.StoreFrac() >= 1 {
		t.Errorf("StoreFrac = %v", c.StoreFrac())
	}
	var zero Counts
	if zero.LoadFrac() != 0 || zero.StoreFrac() != 0 {
		t.Error("zero counts should have zero fractions")
	}
}

// TestQuickALUMatchesGo checks add/sub/xor/slt against Go's own arithmetic
// for random operand values.
func TestQuickALUMatchesGo(t *testing.T) {
	prog := asm.MustAssemble(`
main:   add  r3, r1, r2
        sub  r4, r1, r2
        xor  r5, r1, r2
        slt  r6, r1, r2
        sltu r7, r1, r2
        halt`)
	f := func(a, b uint32) bool {
		s := New(prog)
		s.Reg[isa.R1], s.Reg[isa.R2] = a, b
		if err := s.Run(0); err != nil {
			return false
		}
		slt := uint32(0)
		if int32(a) < int32(b) {
			slt = 1
		}
		sltu := uint32(0)
		if a < b {
			sltu = 1
		}
		return s.Reg[isa.R3] == a+b &&
			s.Reg[isa.R4] == a-b &&
			s.Reg[isa.R5] == a^b &&
			s.Reg[isa.R6] == slt &&
			s.Reg[isa.R7] == sltu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickMulDivMatchesGo checks signed mul/div/rem against Go semantics.
func TestQuickMulDivMatchesGo(t *testing.T) {
	prog := asm.MustAssemble(`
main:   mul  r3, r1, r2
        div  r4, r1, r2
        rem  r5, r1, r2
        halt`)
	f := func(a, b int32) bool {
		s := New(prog)
		s.Reg[isa.R1], s.Reg[isa.R2] = uint32(a), uint32(b)
		if err := s.Run(0); err != nil {
			return false
		}
		wantDiv := DivW(uint32(a), uint32(b))
		wantRem := RemW(uint32(a), uint32(b))
		return int32(s.Reg[isa.R3]) == a*b &&
			s.Reg[isa.R4] == wantDiv &&
			s.Reg[isa.R5] == wantRem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRunProgram(t *testing.T) {
	p := asm.MustAssemble("main: nop\n nop\n halt")
	c, err := RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Insts != 3 {
		t.Errorf("insts = %d", c.Insts)
	}
}

// TestRunContextCancelStopsWithinInterval: a canceled context stops Run
// within one interrupt poll interval of committed instructions, at a
// committed boundary, with the context error visible via errors.Is.
func TestRunContextCancelStopsWithinInterval(t *testing.T) {
	p := asm.MustAssemble("main: j main") // infinite loop
	s := New(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first poll must see it
	err := s.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Counts.Insts > InterruptEvery {
		t.Errorf("ran %d insts after cancellation (interval %d)", s.Counts.Insts, InterruptEvery)
	}
}

// TestRunContextMidRunCancel: cancellation arriving while the
// interpreter is running stops it at the next poll, at most one interval
// later. An observer of a looping load cancels during the third
// interval.
func TestRunContextMidRunCancel(t *testing.T) {
	p := asm.MustAssemble(`
        .data
v:      .word 1
        .text
main:   la   r1, v
loop:   lw   r2, 0(r1)
        j    loop`)
	s := New(p)
	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt uint64
	s.OnLoad = func(MemEvent) {
		if canceledAt == 0 && s.Counts.Insts >= 2*InterruptEvery {
			canceledAt = s.Counts.Insts
			cancel()
		}
	}
	err := s.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want context.Canceled wrapped as an interruption", err)
	}
	if canceledAt == 0 {
		t.Fatal("the observer never canceled")
	}
	if got, max := s.Counts.Insts, canceledAt+InterruptEvery; got > max {
		t.Errorf("ran %d insts, want <= %d (one interval past the cancel at %d)", got, max, canceledAt)
	}
}

// TestRunContextBackgroundIsFree: an uncancelable context runs to
// completion without polling.
func TestRunContextBackgroundIsFree(t *testing.T) {
	s := run(t, "main: halt") // reuse a halted sim just for the method
	s.Halted = false
	s.PC = 0
	if err := s.RunContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
}
