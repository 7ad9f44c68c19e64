package funcsim_test

import (
	"testing"

	"rarpred/internal/funcsim"
	"rarpred/internal/workload"
)

// benchProg is a fixed mid-size program so runs are comparable.
func benchProg(b *testing.B) (insts uint64, run func(b *testing.B, observed bool)) {
	b.Helper()
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		b.Fatal("gcc workload missing")
	}
	prog := w.Assemble(6)
	c, err := funcsim.RunProgram(prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	return c.Insts, func(b *testing.B, observed bool) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			s := funcsim.New(prog)
			if observed {
				s.OnLoad = func(e funcsim.MemEvent) { sink += uint64(e.Addr) }
				s.OnStore = func(e funcsim.MemEvent) { sink += uint64(e.Addr) }
			}
			if err := s.Run(0); err != nil {
				b.Fatal(err)
			}
		}
		_ = sink
	}
}

// BenchmarkRun measures the bare interpreter loop: a job's replay of its
// recording is only as good as the one recording this loop performs.
func BenchmarkRun(b *testing.B) {
	insts, run := benchProg(b)
	b.ResetTimer()
	run(b, false)
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkRunObserved measures the same program with load/store hooks
// attached (the recording configuration).
func BenchmarkRunObserved(b *testing.B) {
	insts, run := benchProg(b)
	b.ResetTimer()
	run(b, true)
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkStep measures the one-instruction-at-a-time path the timing
// pipeline uses, for comparison against the Run fast loop.
func BenchmarkStep(b *testing.B) {
	w, _ := workload.ByAbbrev("gcc")
	prog := w.Assemble(6)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		s := funcsim.New(prog)
		for !s.Halted {
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
		insts = s.Counts.Insts
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}
