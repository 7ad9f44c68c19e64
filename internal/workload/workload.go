// Package workload provides the benchmark suite: one synthetic analog per
// SPEC95 program in Table 5.1 of the paper, written for the simulated ISA.
//
// The originals cannot be run (they require SPEC95 sources and a MIPS-I
// compiler), so each analog reproduces the *memory-dependence idioms* the
// paper attributes to its class instead:
//
//   - SPECint analogs: pointer-chasing structures whose fields are
//     re-read by multiple functions (RAR), hash/record updates and stack
//     save/restore traffic (RAW), interpreter-style double-fetches (RAR).
//   - SPECfp analogs: stencil sweeps whose neighbouring static loads
//     re-read each element across iterations with no intervening store
//     (RAR), long-lived coefficients re-loaded by several static loads
//     (RAR), with results written to disjoint output arrays (so RAW
//     dependences are few or distant) — matching the paper's observation
//     that Fortran codes are dominated by long-lived variables that are
//     not register allocated.
//
// Every program is deterministic: pseudo-random data comes from a fixed
// linear congruential generator embedded in the data segment.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rarpred/internal/asm"
	"rarpred/internal/isa"
)

// Class partitions the suite like the paper's Table 5.1.
type Class uint8

const (
	// Int marks SPECint'95 analogs.
	Int Class = iota
	// FP marks SPECfp'95 analogs.
	FP
)

// String names the class as in the paper.
func (c Class) String() string {
	if c == Int {
		return "SPECint"
	}
	return "SPECfp"
}

// Workload describes one benchmark.
type Workload struct {
	// Name is the full analog name (e.g. "go_like").
	Name string
	// Abbrev matches the paper's abbreviation column (e.g. "go").
	Abbrev string
	// Analog names the SPEC95 program this workload stands in for.
	Analog string
	// Class is the suite half the program belongs to.
	Class Class
	// Description summarises the dependence idioms exercised.
	Description string

	// build assembles the program for a given size parameter n; n = 100
	// is the reference ("functional") size, smaller values shrink the
	// outer iteration counts proportionally for timing runs.
	build func(n int) *isa.Program
}

// ReferenceSize is the size parameter used by the accuracy experiments.
const ReferenceSize = 100

// TimingSize is the (smaller) size parameter used by the cycle-level
// experiments, mirroring the paper's use of sampling to keep timing
// simulation tractable.
const TimingSize = 12

// Assemble builds the workload's program at size n (n <= 0 selects
// ReferenceSize). Each call assembles afresh: a job builds the program
// it simulates and drops it with the job, as it does its recording.
func (w Workload) Assemble(n int) *isa.Program {
	if n <= 0 {
		n = ReferenceSize
	}
	return w.build(n)
}

var registry []Workload

func register(w Workload) {
	registry = append(registry, w)
}

// All returns the suite in the paper's Table 5.1 order: the SPECint
// analogs first, then the SPECfp analogs.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].order() < out[j].order()
	})
	return out
}

// paperOrder fixes the row order of Table 5.1.
var paperOrder = map[string]int{
	"go": 0, "m88": 1, "gcc": 2, "com": 3, "li": 4, "ijp": 5, "per": 6, "vor": 7,
	"tom": 10, "swm": 11, "su2": 12, "hyd": 13, "mgd": 14, "apl": 15, "trb": 16,
	"aps": 17, "fp*": 18, "wav": 19,
}

func (w Workload) order() int { return paperOrder[w.Abbrev] }

// ByName returns the workload with the full analog name (e.g. "go_like").
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// ByAbbrev returns the workload with the paper abbreviation (e.g. "gcc").
func ByAbbrev(abbrev string) (Workload, bool) {
	for _, w := range registry {
		if w.Abbrev == abbrev {
			return w, true
		}
	}
	return Workload{}, false
}

// Ints returns the SPECint analogs in paper order.
func Ints() []Workload { return filter(Int) }

// FPs returns the SPECfp analogs in paper order.
func FPs() []Workload { return filter(FP) }

func filter(c Class) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// scaled divides iters by the reference size ratio, with a floor of 1.
func scaled(iters, n int) int {
	v := iters * n / ReferenceSize
	if v < 1 {
		v = 1
	}
	return v
}

// lcg is the deterministic data generator embedded in workload data
// segments (a Numerical-Recipes LCG). Used at build time only.
type lcg uint32

func (g *lcg) next() uint32 {
	*g = *g*1664525 + 1013904223
	return uint32(*g)
}

// words produces count pseudo-random words in [0, bound) from seed.
func words(seed uint32, count int, bound uint32) []uint32 {
	g := lcg(seed)
	out := make([]uint32, count)
	for i := range out {
		if bound == 0 {
			out[i] = g.next()
		} else {
			out[i] = g.next() % bound
		}
	}
	return out
}

// floatWords produces count float32 bit patterns v = (seed-derived value
// mod m) * scale, for FP array data segments.
func floatWords(seed uint32, count int, m uint32, scale float64) []uint32 {
	g := lcg(seed)
	out := make([]uint32, count)
	for i := range out {
		v := float32(float64(g.next()%m) * scale)
		out[i] = f32bits(v)
	}
	return out
}

// f32bits converts a float32 to its bit pattern (shorthand).
func f32bits(v float32) uint32 { return math.Float32bits(v) }

// wordsDirective renders a labelled .word block for a data segment.
func wordsDirective(label string, vals []uint32) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", label)
	for i := 0; i < len(vals); i += 8 {
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		sb.WriteString("        .word ")
		for j := i; j < end; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", vals[j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// mustBuild assembles source text, panicking with the workload name on
// error (workload sources are compile-time constants; failure is a bug).
func mustBuild(name, src string) *isa.Program {
	p, err := asm.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", name, err))
	}
	return p
}
