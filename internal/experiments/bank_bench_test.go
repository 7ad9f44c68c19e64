package experiments

import (
	"testing"

	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// BenchmarkBankReplay replays a sealed multi-chunk reference stream
// through the bank of a suite pass: every functional experiment's plan
// registered on one pass, which gives the pass's engine configs, shared
// detectors and outcome listeners. The bank takes address ids, so the
// stream goes through the pass's numbering (trace.AddrIDs), which keeps
// its ids across replays. After one warm-up replay every table, id and
// column is allocated, so -benchmem must report 0 allocs/op; a column
// allocated per chunk would show here.
func BenchmarkBankReplay(b *testing.B) {
	w, _ := workload.ByAbbrev("gcc")
	tr, err := trace.RecordStream(w.Assemble(workload.ReferenceSize), 0)
	if err != nil {
		b.Fatal(err)
	}
	if tr.NumChunks() < 2 {
		b.Fatalf("%s reference stream has %d chunks, want several", w.Name, tr.NumChunks())
	}
	p := newPass(w, tr)
	for _, e := range All() {
		if r, ok := e.Cells.(passRunner); ok {
			r.planCell(p)
		}
	}
	bank := trace.NewAddrIDs(p.bank)
	tr.Replay(bank) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Replay(bank)
	}
	b.ReportMetric(float64(len(p.bank.Engines())), "engines")
}
