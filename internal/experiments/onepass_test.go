package experiments

import (
	"context"
	"fmt"
	"testing"

	"rarpred/internal/cloak"
	"rarpred/internal/locality"
	"rarpred/internal/stats"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// The per-variant references below compute each one-pass cell's row
// with one independent DDT, locality analyzer or engine per variant,
// each fed the whole stream on its own.

func refFig5(w workload.Workload, tr *trace.Stream) Fig5Row {
	row := Fig5Row{Workload: w}
	for _, size := range Fig5Sizes {
		d := cloak.NewDDT(size, true)
		var raw, rar uint64
		tr.Replay(trace.SinkFuncs{
			OnLoad: func(pc, addr, _ uint32) {
				if dep, ok := d.Load(addr, pc); ok && dep.Kind == cloak.DepRAW {
					raw++
				} else if ok {
					rar++
				}
			},
			OnStore: func(pc, addr, _ uint32) { d.Store(addr, pc) },
		})
		row.Points = append(row.Points, Fig5Point{
			DDTSize: size,
			RAWFrac: stats.Ratio(raw, tr.Loads()),
			RARFrac: stats.Ratio(rar, tr.Loads()),
		})
	}
	return row
}

func refLocality(tr *trace.Stream, window int) *locality.RARLocality {
	l := locality.NewRARLocality(window)
	tr.Replay(trace.SinkFuncs{
		OnLoad:  func(pc, addr, _ uint32) { l.Load(pc, addr) },
		OnStore: func(pc, addr, _ uint32) { l.Store(pc, addr) },
	})
	return l
}

func refFig2(w workload.Workload, tr *trace.Stream) Fig2Row {
	inf, win := refLocality(tr, 0), refLocality(tr, Fig2Window)
	row := Fig2Row{Workload: w, SinkInf: inf.SinkLoads(), SinkWin: win.SinkLoads()}
	for n := 1; n <= locality.MaxDepth; n++ {
		row.Infinite[n-1] = inf.Locality(n)
		row.Windowed[n-1] = win.Locality(n)
	}
	return row
}

func refAblWindow(w workload.Workload, tr *trace.Stream) WindowRow {
	row := WindowRow{Workload: w}
	for _, ws := range WindowSizes {
		l := refLocality(tr, ws)
		row.SinkFrac = append(row.SinkFrac, stats.Ratio(l.SinkLoads(), tr.Loads()))
		row.Locality1 = append(row.Locality1, l.Locality(1))
	}
	return row
}

func refStats(tr *trace.Stream, cfg cloak.Config) cloak.Stats {
	e := cloak.New(cfg)
	tr.Replay(trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
		OnStore: e.Store,
	})
	return e.Stats()
}

func refFig6(w workload.Workload, tr *trace.Stream) Fig6Row {
	cfg1 := cloak.DefaultConfig()
	cfg1.Confidence = cloak.NonAdaptive1Bit
	return Fig6Row{
		Workload: w,
		OneBit:   cellFrom(refStats(tr, cfg1)),
		TwoBit:   cellFrom(refStats(tr, cloak.DefaultConfig())),
	}
}

func refVariants(w workload.Workload, tr *trace.Stream, cfgs []cloak.Config) any {
	row := struct {
		Workload workload.Workload
		Cells    []ablCell
	}{Workload: w}
	for _, cfg := range cfgs {
		st := refStats(tr, cfg)
		row.Cells = append(row.Cells, ablCell{
			Coverage: stats.Ratio(st.Covered(), st.Loads),
			Misp:     stats.Ratio(st.Mispredicted(), st.Loads),
		})
	}
	return row
}

func refAblDist(w workload.Workload, tr *trace.Stream) DistRow {
	d := locality.NewDistanceAnalyzer()
	tr.Replay(trace.SinkFuncs{
		OnLoad:  func(pc, addr, _ uint32) { d.Load(pc, addr) },
		OnStore: func(pc, addr, _ uint32) { d.Store(pc, addr) },
	})
	return DistRow{
		Workload: w,
		Sinks:    d.Sinks(),
		CDF32:    d.CDF(32),
		CDF128:   d.CDF(128),
		CDF512:   d.CDF(512),
		CDF2K:    d.CDF(2048),
		P50:      d.Percentile(0.50),
		P90:      d.Percentile(0.90),
		P99:      d.Percentile(0.99),
	}
}

// bijectAddrs returns a copy of tr whose addresses are multiplied by an
// odd constant: a bijection on uint32 that scatters a data segment's
// consecutive words far apart and out of order.
func bijectAddrs(tr *trace.Stream) *trace.Stream {
	const odd = 0x9e3779b1
	out := trace.NewStream()
	tr.Replay(trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { out.Append(trace.KindLoad, pc, addr*odd, value) },
		OnStore: func(pc, addr, value uint32) { out.Append(trace.KindStore, pc, addr*odd, value) },
	})
	out.Seal()
	out.Counts, out.Truncated = tr.Counts, tr.Truncated
	return out
}

// TestOnePassCellsMatchPerVariantReference: every cell that replays its
// stream once through a DDT sweep or an engine bank produces exactly the
// row of its per-variant reference, on every workload, and abldist's
// analyzer, fed address ids, the row of one fed raw addresses.
//
// It also checks the premise of the pass's address ids: no functional
// result depends on address values, only on which accesses share an
// address. Every functional cell's row on an address-bijected copy of
// each stream must equal its row on the stream itself.
func TestOnePassCellsMatchPerVariantReference(t *testing.T) {
	opt := tiny()
	ctx := context.Background()
	for _, w := range workload.All() {
		tr, err := workloadStream(ctx, opt, w, opt.size(workload.ReferenceSize))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mapped := bijectAddrs(tr)
		for _, e := range All() {
			r, ok := e.Cells.(passRunner)
			if !ok {
				continue
			}
			want := fmt.Sprintf("%#v", runPass(w, tr, []passRunner{r})[0])
			if got := fmt.Sprintf("%#v", runPass(w, mapped, []passRunner{r})[0]); got != want {
				t.Errorf("%s/%s: row on the address-bijected stream differs:\n got %s\nwant %s",
					e.ID, w.Name, got, want)
			}
		}
		for _, c := range []struct {
			id    string
			cells CellRunner
			ref   func() any
		}{
			{"fig5", fig5Cells, func() any { return refFig5(w, tr) }},
			{"fig2", fig2Cells, func() any { return refFig2(w, tr) }},
			{"ablwindow", ablWindowCells, func() any { return refAblWindow(w, tr) }},
			{"fig6", fig6Cells, func() any { return refFig6(w, tr) }},
			{"ablmerge", ablMergeCells, func() any { return refVariants(w, tr, ablMergeConfigs) }},
			{"ablsplit", ablSplitCells, func() any { return refVariants(w, tr, ablSplitConfigs) }},
			{"abldpnt", ablDPNTCells, func() any { return refVariants(w, tr, ablDPNTConfigs) }},
			{"abldist", ablDistCells, func() any { return refAblDist(w, tr) }},
		} {
			got := standaloneCell(t, opt, w, c.cells)
			// %#v rather than reflect.DeepEqual: Workload carries a
			// generator func, and DeepEqual calls any non-nil func unequal.
			if g, want := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", c.ref()); g != want {
				t.Errorf("%s/%s: one-pass row differs from the per-variant reference:\n got %s\nwant %s",
					c.id, w.Name, g, want)
			}
		}
	}
}
