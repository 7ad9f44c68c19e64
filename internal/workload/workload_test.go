package workload

import (
	"testing"

	"rarpred/internal/funcsim"
)

// TestAllWorkloadsRunToCompletion executes every registered workload at a
// small size and checks it halts with a plausible dynamic mix.
func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Assemble(4)
			s := funcsim.New(prog)
			if err := s.Run(80_000_000); err != nil {
				t.Fatalf("%s: %v (insts=%d, pc=%#x)", w.Name, err, s.Counts.Insts, s.PC)
			}
			c := s.Counts
			if c.Insts < 1000 {
				t.Errorf("%s: only %d instructions at size 4", w.Name, c.Insts)
			}
			if lf := c.LoadFrac(); lf < 0.10 || lf > 0.55 {
				t.Errorf("%s: load fraction %.3f outside [0.10, 0.55]", w.Name, lf)
			}
			if sf := c.StoreFrac(); sf <= 0 || sf > 0.35 {
				t.Errorf("%s: store fraction %.3f outside (0, 0.35]", w.Name, sf)
			}
			if c.Branches == 0 {
				t.Errorf("%s: no branches", w.Name)
			}
		})
	}
}

// TestWorkloadsDeterministic: the same build must produce identical
// programs and identical dynamic counts.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a, err1 := funcsim.RunProgram(w.Assemble(2), 80_000_000)
			b, err2 := funcsim.RunProgram(w.Assemble(2), 80_000_000)
			if err1 != nil || err2 != nil {
				t.Fatalf("errors: %v, %v", err1, err2)
			}
			if a != b {
				t.Errorf("nondeterministic counts: %+v vs %+v", a, b)
			}
		})
	}
}

// TestWorkloadScaling: a larger size parameter must execute more
// instructions.
func TestWorkloadScaling(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			small, err := funcsim.RunProgram(w.Assemble(2), 80_000_000)
			if err != nil {
				t.Fatal(err)
			}
			large, err := funcsim.RunProgram(w.Assemble(50), 400_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if large.Insts <= small.Insts {
				t.Errorf("size 50 ran %d insts, size 2 ran %d", large.Insts, small.Insts)
			}
		})
	}
}

func TestRegistryShape(t *testing.T) {
	all := All()
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name == "" || w.Abbrev == "" || w.Analog == "" || w.Description == "" {
			t.Errorf("incomplete metadata: %+v", w)
		}
		if seen[w.Abbrev] {
			t.Errorf("duplicate abbrev %q", w.Abbrev)
		}
		seen[w.Abbrev] = true
		if _, ok := paperOrder[w.Abbrev]; !ok {
			t.Errorf("abbrev %q missing from paper order", w.Abbrev)
		}
	}
	// Ints before FPs, each in paper order.
	prev := -1
	for _, w := range all {
		if w.order() <= prev {
			t.Errorf("registry out of paper order at %s", w.Abbrev)
		}
		prev = w.order()
	}
}

func TestByAbbrev(t *testing.T) {
	if w, ok := ByAbbrev("go"); !ok || w.Name != "go_like" {
		t.Errorf("ByAbbrev(go) = %+v, %v", w, ok)
	}
	if _, ok := ByAbbrev("nope"); ok {
		t.Error("unknown abbrev found")
	}
}

func TestClassSplit(t *testing.T) {
	for _, w := range Ints() {
		if w.Class != Int {
			t.Errorf("%s in Ints but class %v", w.Name, w.Class)
		}
	}
	for _, w := range FPs() {
		if w.Class != FP {
			t.Errorf("%s in FPs but class %v", w.Name, w.Class)
		}
	}
}

func TestScaledFloor(t *testing.T) {
	if scaled(10, 1) != 1 {
		t.Errorf("scaled floor = %d", scaled(10, 1))
	}
	if scaled(1000, 50) != 500 {
		t.Errorf("scaled = %d", scaled(1000, 50))
	}
}

func TestDataBaseMatchesAsm(t *testing.T) {
	// gcc_like embeds absolute node addresses computed from dataBase; it
	// must match the assembler's DataBase or pointers dangle.
	p := mustBuild("probe", "main: halt")
	if p.DataBase != dataBase {
		t.Fatalf("dataBase %#x != asm.DataBase %#x", dataBase, p.DataBase)
	}
}
