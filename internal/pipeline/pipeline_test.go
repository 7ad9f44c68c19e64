package pipeline

import (
	"testing"

	"rarpred/internal/asm"
	"rarpred/internal/cloak"
	"rarpred/internal/isa"
	"rarpred/internal/workload"
)

func run(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIPCBounds(t *testing.T) {
	res := run(t, `
main:   li   r1, 10000
loop:   addi r2, r2, 1
        addi r3, r3, 1
        addi r4, r4, 1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`, DefaultConfig())
	ipc := res.IPC()
	if ipc <= 0.5 || ipc > 8 {
		t.Errorf("IPC = %.2f outside (0.5, 8]", ipc)
	}
	if res.Insts != 50002 {
		t.Errorf("insts = %d", res.Insts)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	indep := run(t, `
main:   li   r9, 20000
loop:   add  r1, r1, r8
        add  r2, r2, r8
        add  r3, r3, r8
        add  r4, r4, r8
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	chain := run(t, `
main:   li   r9, 20000
loop:   add  r1, r1, r8
        add  r1, r1, r8
        add  r1, r1, r8
        add  r1, r1, r8
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	if chain.Cycles <= indep.Cycles {
		t.Errorf("dependence chain (%d cycles) not slower than independent ops (%d)",
			chain.Cycles, indep.Cycles)
	}
}

func TestLongLatencyOpsCost(t *testing.T) {
	adds := run(t, `
main:   li   r9, 20000
loop:   add  r1, r1, r2
        add  r1, r1, r2
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	divs := run(t, `
main:   li   r9, 20000
loop:   div  r1, r1, r2
        div  r1, r1, r2
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	if divs.Cycles < adds.Cycles*4 {
		t.Errorf("div chain %d cycles vs add chain %d: 12-cycle latency not visible",
			divs.Cycles, adds.Cycles)
	}
}

func TestBranchMispredictsHurt(t *testing.T) {
	// A data-dependent unpredictable branch (LCG bit) vs a fixed pattern.
	predictable := run(t, `
main:   li   r9, 30000
loop:   addi r2, r2, 1
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	random := run(t, `
main:   li   r9, 30000
        li   r20, 12345
loop:   li   r1, 1664525
        mul  r20, r20, r1
        li   r1, 1013904223
        add  r20, r20, r1
        srli r2, r20, 17
        andi r2, r2, 1
        beq  r2, r0, skip
        addi r3, r3, 1
skip:   addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	if random.BranchMispredicts < 5000 {
		t.Errorf("random branch mispredicted only %d times", random.BranchMispredicts)
	}
	if predictable.BranchMispredicts > 100 {
		t.Errorf("loop branch mispredicted %d times", predictable.BranchMispredicts)
	}
	// Mispredictions must cost cycles: CPI of the random version is worse.
	if random.IPC() >= predictable.IPC() {
		t.Errorf("mispredictions did not reduce IPC: %.2f vs %.2f",
			random.IPC(), predictable.IPC())
	}
}

func TestStoreForwarding(t *testing.T) {
	res := run(t, `
        .data
x:      .word 0
        .text
main:   li   r9, 10000
        la   r1, x
loop:   sw   r9, 0(r1)
        lw   r2, 0(r1)
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	if res.StoreForwards < 9000 {
		t.Errorf("store forwards = %d, want ~10000", res.StoreForwards)
	}
	if res.MemViolations > 500 {
		t.Errorf("adjacent store/load caused %d violations", res.MemViolations)
	}
}

func TestMemViolationRequiresLateStoreAddress(t *testing.T) {
	// The store's address depends on a long-latency chain, so the load
	// issues before the store posts its address: a violation under naive
	// speculation.
	src := `
        .data
x:      .word 0
tab:    .word 0
        .text
main:   li   r9, 5000
        la   r1, x
loop:   mv   r2, r1
        div  r3, r9, r9             # long latency feeding the address
        div  r3, r3, r3
        mul  r4, r3, r3
        add  r5, r1, r4
        sub  r5, r5, r3
        addi r5, r5, 1
        addi r5, r5, -1
        sw   r9, 0(r5)              # late-address store to x
        lw   r6, 0(r1)              # same address, issues early
        add  r7, r7, r6
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	naive := run(t, src, DefaultConfig())
	if naive.MemViolations < 1000 {
		t.Errorf("violations = %d, want many", naive.MemViolations)
	}
	cfg := DefaultConfig()
	cfg.MemSpec = NoSpec
	nospec := run(t, src, cfg)
	if nospec.MemViolations != 0 {
		t.Errorf("no-speculation had %d violations", nospec.MemViolations)
	}
}

func TestNoSpecSlowerOnIndependentMemory(t *testing.T) {
	// Loads independent of the (late-address) stores: naive speculation
	// should win clearly.
	src := `
        .data
a:      .space 64
b:      .space 64
        .text
main:   li   r9, 20000
        la   r1, a
        la   r2, b
loop:   div  r3, r9, r9
        slli r4, r3, 2
        add  r4, r2, r4
        sw   r9, 0(r4)              # late store address (b side)
        lw   r5, 0(r1)              # independent load (a side)
        lw   r6, 4(r1)
        add  r7, r5, r6
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	naive := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.MemSpec = NoSpec
	nospec := run(t, src, cfg)
	if naive.Cycles >= nospec.Cycles {
		t.Errorf("naive speculation (%d cycles) not faster than no-speculation (%d)",
			naive.Cycles, nospec.Cycles)
	}
}

// rarSource is a microbenchmark with a strong, predictable RAR stream:
// two functions read the same cell through high-latency-miss patterns.
const rarSource = `
        .data
tab:    .space 4096
        .text
main:   li   r9, 8000
        li   r20, 5
loop:   li   r1, 69069
        mul  r20, r20, r1
        addi r20, r20, 1
        srli r2, r20, 10
        andi r2, r2, 1023
        slli r2, r2, 2
        la   r3, tab
        add  r3, r3, r2
        lw   r4, 0(r3)              # source load
        add  r5, r4, r9
        lw   r6, 0(r3)              # sink load: stable RAR pair
        add  r7, r6, r5
        add  r7, r7, r9
        sw   r7, 0(r3)
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`

func TestCloakingImprovesRARWorkload(t *testing.T) {
	base := run(t, rarSource, DefaultConfig())
	cfg := DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	cfg.Cloak = &cc
	cfg.Bypassing = true
	cloaked := run(t, rarSource, cfg)
	if cloaked.SpecCorrect == 0 {
		t.Fatalf("no covered loads: %+v", cloaked)
	}
	if cloaked.Cycles > base.Cycles {
		t.Errorf("cloaking slowed down: %d vs %d cycles", cloaked.Cycles, base.Cycles)
	}
}

func TestSquashWorseThanSelective(t *testing.T) {
	// A workload with some misspeculation: the RAR pair breaks often.
	src := `
        .data
tab:    .space 512
        .text
main:   li   r9, 20000
        li   r20, 7
loop:   li   r1, 69069
        mul  r20, r20, r1
        addi r20, r20, 3
        srli r2, r20, 9
        andi r2, r2, 127
        slli r2, r2, 2
        la   r3, tab
        add  r3, r3, r2
        lw   r4, 0(r3)              # source
        srli r5, r20, 11
        andi r5, r5, 127
        slli r5, r5, 2
        la   r6, tab
        add  r6, r6, r5
        lw   r7, 0(r6)              # sink with usually-different address
        add  r8, r4, r7
        add  r8, r8, r9             # inject the counter so values vary
        sw   r8, 0(r3)
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	mk := func(rec RecoveryPolicy, conf cloak.ConfKind) Result {
		cfg := DefaultConfig()
		cc := cloak.TimingConfig(cloak.ModeRAWRAR)
		cc.Confidence = conf
		cfg.Cloak = &cc
		cfg.Recovery = rec
		return run(t, src, cfg)
	}
	// Use the non-adaptive predictor to force frequent misspeculation.
	sel := mk(Selective, cloak.NonAdaptive1Bit)
	sq := mk(Squash, cloak.NonAdaptive1Bit)
	if sq.SpecWrong == 0 {
		t.Fatalf("expected misspeculations; sel=%+v sq=%+v", sel, sq)
	}
	if sq.Cycles <= sel.Cycles {
		t.Errorf("squash (%d cycles) not worse than selective (%d)", sq.Cycles, sel.Cycles)
	}
}

func TestDeterministic(t *testing.T) {
	w, _ := workload.ByAbbrev("li")
	prog := w.Assemble(3)
	a, err := RunProgram(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProgram(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic timing: %+v vs %+v", a, b)
	}
}

func TestWorkloadTimingSmoke(t *testing.T) {
	for _, ab := range []string{"go", "tom"} {
		w, _ := workload.ByAbbrev(ab)
		prog := w.Assemble(3)
		res, err := RunProgram(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ipc := res.IPC(); ipc < 0.3 || ipc > 8 {
			t.Errorf("%s: IPC %.2f implausible (%d cycles, %d insts)",
				ab, ipc, res.Cycles, res.Insts)
		}
		if res.BranchAcc < 0.5 {
			t.Errorf("%s: branch accuracy %.2f", ab, res.BranchAcc)
		}
	}
}

func TestMaxInstsBound(t *testing.T) {
	prog := asm.MustAssemble("main: j main")
	cfg := DefaultConfig()
	cfg.MaxInsts = 1000
	res, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 1000 {
		t.Errorf("insts = %d", res.Insts)
	}
}

func TestWindowLimitsILP(t *testing.T) {
	// A tiny window should slow a long-latency-bound loop: with a large
	// window, many iterations overlap; with window 8, they cannot.
	src := `
main:   li   r9, 20000
loop:   div  r1, r9, r9
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	big := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.WindowSize = 8
	small := run(t, src, cfg)
	if small.Cycles <= big.Cycles {
		t.Errorf("window 8 (%d cycles) not slower than window 128 (%d)",
			small.Cycles, big.Cycles)
	}
}

var _ = isa.NumRegs // keep isa imported for potential debug use

func TestStoreSetsLearnConflicts(t *testing.T) {
	// The same late-address store/load conflict as the violation test:
	// store sets must learn the pair and synchronize, eliminating nearly
	// all violations after warmup.
	src := `
        .data
x:      .word 0
        .text
main:   li   r9, 5000
        la   r1, x
loop:   div  r3, r9, r9
        div  r3, r3, r3
        mul  r4, r3, r3
        add  r5, r1, r4
        sub  r5, r5, r3
        addi r5, r5, 1
        addi r5, r5, -1
        sw   r9, 0(r5)
        lw   r6, 0(r1)
        add  r7, r7, r6
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	naive := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.MemSpec = StoreSets
	ss := run(t, src, cfg)
	if ss.MemViolations*20 > naive.MemViolations {
		t.Errorf("store sets left %d violations (naive: %d)",
			ss.MemViolations, naive.MemViolations)
	}
	if ss.Cycles >= naive.Cycles {
		t.Errorf("store sets (%d cycles) not faster than violating naive (%d)",
			ss.Cycles, naive.Cycles)
	}
}

func TestStoreSetsDoNotOverSynchronize(t *testing.T) {
	// Independent loads must keep naive-speculation performance under
	// store sets (no false dependences).
	src := `
        .data
a:      .space 64
b:      .space 64
        .text
main:   li   r9, 20000
        la   r1, a
        la   r2, b
loop:   div  r3, r9, r9
        slli r4, r3, 2
        add  r4, r2, r4
        sw   r9, 0(r4)
        lw   r5, 0(r1)
        lw   r6, 4(r1)
        add  r7, r5, r6
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	naive := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.MemSpec = StoreSets
	ss := run(t, src, cfg)
	slack := naive.Cycles / 50 // within 2%
	if ss.Cycles > naive.Cycles+slack {
		t.Errorf("store sets (%d cycles) notably worse than naive (%d) on independent memory",
			ss.Cycles, naive.Cycles)
	}
}

func TestOracleRecoveryNeverUsesWrongValues(t *testing.T) {
	src := `
        .data
tab:    .space 512
        .text
main:   li   r9, 20000
        li   r20, 7
loop:   li   r1, 69069
        mul  r20, r20, r1
        addi r20, r20, 3
        srli r2, r20, 9
        andi r2, r2, 127
        slli r2, r2, 2
        la   r3, tab
        add  r3, r3, r2
        lw   r4, 0(r3)
        srli r5, r20, 11
        andi r5, r5, 127
        slli r5, r5, 2
        la   r6, tab
        add  r6, r6, r5
        lw   r7, 0(r6)
        add  r8, r4, r7
        add  r8, r8, r9
        sw   r8, 0(r3)
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	mk := func(rec RecoveryPolicy) Result {
		cfg := DefaultConfig()
		cc := cloak.TimingConfig(cloak.ModeRAWRAR)
		cc.Confidence = cloak.NonAdaptive1Bit
		cfg.Cloak = &cc
		cfg.Recovery = rec
		return run(t, src, cfg)
	}
	oracle := mk(Oracle)
	sel := mk(Selective)
	if oracle.SpecWrong != 0 {
		t.Errorf("oracle used %d wrong values", oracle.SpecWrong)
	}
	if oracle.SpecSkipped == 0 {
		t.Error("oracle suppressed nothing on a misspeculating workload")
	}
	// The paper's observation: selective invalidation performs about the
	// same as the oracle.
	diff := int64(oracle.Cycles) - int64(sel.Cycles)
	if diff < 0 {
		diff = -diff
	}
	if uint64(diff) > oracle.Cycles/50 {
		t.Errorf("selective (%d cycles) deviates >2%% from oracle (%d)",
			sel.Cycles, oracle.Cycles)
	}
}

func TestPolicyStrings(t *testing.T) {
	if NaiveSpec.String() != "naive" || NoSpec.String() != "no-speculation" ||
		StoreSets.String() != "store-sets" {
		t.Error("mem spec strings")
	}
	if Selective.String() != "selective" || Squash.String() != "squash" ||
		Oracle.String() != "oracle" {
		t.Error("recovery strings")
	}
}

func TestBypassingSavesAPropagationCycle(t *testing.T) {
	mk := func(bypass bool) Result {
		cfg := DefaultConfig()
		cc := cloak.TimingConfig(cloak.ModeRAWRAR)
		cfg.Cloak = &cc
		cfg.Bypassing = bypass
		return run(t, rarSource, cfg)
	}
	with := mk(true)
	without := mk(false)
	if with.Cycles > without.Cycles {
		t.Errorf("bypassing (%d cycles) slower than cloaking alone (%d)",
			with.Cycles, without.Cycles)
	}
}

func TestNarrowerMachineIsSlower(t *testing.T) {
	src := `
main:   li   r9, 20000
loop:   add  r1, r1, r8
        add  r2, r2, r8
        add  r3, r3, r8
        add  r4, r4, r8
        add  r5, r5, r8
        add  r6, r6, r8
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	wide := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Width = 2
	narrow := run(t, src, cfg)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("2-wide (%d cycles) not slower than 8-wide (%d)",
			narrow.Cycles, wide.Cycles)
	}
	// A 2-wide machine cannot exceed IPC 2.
	if narrow.IPC() > 2.01 {
		t.Errorf("2-wide IPC = %.2f", narrow.IPC())
	}
}

func TestDeepFrontEndCostsOnMispredicts(t *testing.T) {
	// Random branches make the front-end depth visible: each redirect
	// refills the pipe.
	src := `
main:   li   r9, 30000
        li   r20, 12345
loop:   li   r1, 1664525
        mul  r20, r20, r1
        li   r1, 1013904223
        add  r20, r20, r1
        srli r2, r20, 17
        andi r2, r2, 1
        beq  r2, r0, skip
        addi r3, r3, 1
skip:   addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	shallow := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.FrontEndDepth = 20
	deep := run(t, src, cfg)
	if deep.Cycles <= shallow.Cycles {
		t.Errorf("20-deep front end (%d cycles) not slower than 5-deep (%d)",
			deep.Cycles, shallow.Cycles)
	}
}

func TestCacheMissesVisible(t *testing.T) {
	// A dependent walk (each address depends on the previous load) over
	// 1MB (exceeds 32KB L1) vs over 4KB (fits): the load latency is on
	// the critical path, so misses must cost cycles.
	mk := func(words, stride int) string {
		return `
        .data
buf:    .space ` + itoa(words) + `
        .text
main:   li   r9, 30000
        la   r1, buf
        li   r10, 0
loop:   slli r2, r10, 2
        add  r2, r1, r2
        lw   r3, 0(r2)
        add  r10, r10, r3           # next address depends on the load
        addi r10, r10, ` + itoa(stride) + `
        li   r5, ` + itoa(words-1) + `
        and  r10, r10, r5           # words is a power of two
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	}
	smallBuf := run(t, mk(1024, 7), DefaultConfig())    // 4KB, L1 resident
	bigBuf := run(t, mk(262144, 1031), DefaultConfig()) // 1MB, streaming
	if bigBuf.L1DMissRate < smallBuf.L1DMissRate+0.1 {
		t.Errorf("miss rates: big %.3f, small %.3f", bigBuf.L1DMissRate, smallBuf.L1DMissRate)
	}
	if bigBuf.Cycles <= smallBuf.Cycles+smallBuf.Cycles/10 {
		t.Errorf("missing walk (%d cycles) not clearly slower than resident one (%d)",
			bigBuf.Cycles, smallBuf.Cycles)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestCommitIsInOrderAndBounded(t *testing.T) {
	// Cycles can never be fewer than insts/width.
	res := run(t, `
main:   li   r9, 10000
loop:   addi r9, r9, -1
        bne  r9, r0, loop
        halt`, DefaultConfig())
	if res.Cycles < res.Insts/8 {
		t.Errorf("cycles %d below the width bound %d", res.Cycles, res.Insts/8)
	}
}

func TestAllPoliciesDeterministic(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	prog := w.Assemble(3)
	for _, spec := range []MemSpecPolicy{NaiveSpec, NoSpec, StoreSets} {
		cfg := DefaultConfig()
		cfg.MemSpec = spec
		a, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%v nondeterministic", spec)
		}
	}
}

func TestSamplingApproximatesFullTiming(t *testing.T) {
	w, _ := workload.ByAbbrev("per")
	prog := w.Assemble(20)
	full, err := RunProgram(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SampleRatio = 2 // the paper's 1:2 ratio for this program
	cfg.ObservationSize = 20_000
	sampled, err := RunProgram(w.Assemble(20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Insts != full.Insts {
		t.Fatalf("sampling changed committed instructions: %d vs %d",
			sampled.Insts, full.Insts)
	}
	if sampled.TimedInsts >= full.TimedInsts {
		t.Fatalf("sampling timed %d of %d instructions", sampled.TimedInsts, sampled.Insts)
	}
	// The paper: sampled accuracy/timing is close to whole-program
	// simulation. Allow 15% on the extrapolated cycle count.
	est := sampled.EstimatedCycles()
	lo, hi := full.Cycles-full.Cycles/7, full.Cycles+full.Cycles/7
	if est < lo || est > hi {
		t.Errorf("extrapolated cycles %d outside [%d, %d] (full run %d)",
			est, lo, hi, full.Cycles)
	}
	// Predictors keep training through functional phases: accuracy stays
	// in the same region.
	if sampled.BranchAcc < full.BranchAcc-0.05 {
		t.Errorf("sampled branch accuracy %.3f vs full %.3f",
			sampled.BranchAcc, full.BranchAcc)
	}
}

func TestSamplingKeepsCloakingAccuracy(t *testing.T) {
	w, _ := workload.ByAbbrev("gcc")
	mk := func(ratio int) Result {
		cfg := DefaultConfig()
		cc := cloak.TimingConfig(cloak.ModeRAWRAR)
		cfg.Cloak = &cc
		cfg.SampleRatio = ratio
		cfg.ObservationSize = 10_000
		res, err := RunProgram(w.Assemble(10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := mk(0)
	sampled := mk(3)
	fullCov := float64(full.SpecCorrect) / float64(full.TimedInsts)
	sampledCov := float64(sampled.SpecCorrect) / float64(sampled.TimedInsts)
	if sampledCov < fullCov-0.05 {
		t.Errorf("sampled timing coverage %.3f vs full %.3f (tables must keep training)",
			sampledCov, fullCov)
	}
}

func TestTinyLSQThrottlesMemoryOps(t *testing.T) {
	// A memory-heavy loop: a 2-entry LSQ forces memory ops to wait for
	// earlier ones to drain, costing cycles vs the 128-entry default.
	src := `
        .data
buf:    .space 64
        .text
main:   li   r9, 20000
        la   r1, buf
loop:   lw   r2, 0(r1)
        lw   r3, 4(r1)
        lw   r4, 8(r1)
        sw   r2, 12(r1)
        lw   r5, 16(r1)
        sw   r3, 20(r1)
        addi r9, r9, -1
        bne  r9, r0, loop
        halt`
	big := run(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.LSQSize = 2
	small := run(t, src, cfg)
	if small.Cycles <= big.Cycles {
		t.Errorf("2-entry LSQ (%d cycles) not slower than 128-entry (%d)",
			small.Cycles, big.Cycles)
	}
}
