package experiments

import (
	"strings"
	"testing"

	"rarpred/internal/workload"
)

// tiny returns options that keep unit tests fast: small workloads.
func tiny() Options { return Options{Size: 4} }

// subset restricts to a few representative workloads.
func subset(abbrevs ...string) Options {
	opt := tiny()
	for _, a := range abbrevs {
		w, ok := workload.ByAbbrev(a)
		if !ok {
			panic("unknown workload " + a)
		}
		opt.Workloads = append(opt.Workloads, w)
	}
	return opt
}

// leading returns tiny options over the suite's first n workloads: the
// synthetic experiments' passes look up small real streams.
func leading(n int) Options {
	opt := tiny()
	opt.Workloads = workload.All()[:n]
	return opt
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"abldist", "abldpnt", "ablmemspec", "ablmerge",
		"ablprofile", "ablrecovery", "ablsplit", "ablwindow", "fig10",
		"fig2", "fig5", "fig6", "fig7a", "fig7b", "fig9", "synergy",
		"table51", "table52"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok || e.ID != id || e.Title == "" || e.Cells == nil {
			t.Errorf("ByID(%s) broken: %+v, %v", id, e, ok)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestTable51(t *testing.T) {
	res, err := mustByID(t, "table51").Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table51Result)
	if len(r.Rows) != 18 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Counts.Insts == 0 {
			t.Errorf("%s: zero instructions", row.Workload.Name)
		}
		if lf := row.Counts.LoadFrac(); lf <= 0 || lf > 0.6 {
			t.Errorf("%s: load fraction %.2f", row.Workload.Name, lf)
		}
	}
	if !strings.Contains(r.String(), "go_like") {
		t.Error("rendering lacks workload names")
	}
}

func TestFig2LocalityIsCDF(t *testing.T) {
	res, err := mustByID(t, "fig2").Run(subset("gcc", "tom", "com"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig2Result)
	for _, row := range r.Rows {
		prev := 0.0
		for _, v := range row.Infinite {
			if v < prev || v < 0 || v > 1 {
				t.Errorf("%s: non-CDF locality %v", row.Workload.Name, row.Infinite)
			}
			prev = v
		}
	}
	// The paper's headline: locality(4) is high for programs with RAR
	// streams. gcc and tom have strong streams.
	for _, row := range r.Rows {
		if row.Workload.Abbrev == "com" {
			continue // compress has almost no RAR sinks
		}
		if row.Infinite[3] < 0.7 {
			t.Errorf("%s: locality(4) = %.2f < 0.7", row.Workload.Name, row.Infinite[3])
		}
	}
}

func TestFig5DetectionGrowsWithDDT(t *testing.T) {
	res, err := mustByID(t, "fig5").Run(subset("go", "vor", "hyd"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig5Result)
	for _, row := range r.Rows {
		if len(row.Points) != len(Fig5Sizes) {
			t.Fatalf("%s: %d points, want %d", row.Workload.Name, len(row.Points), len(Fig5Sizes))
		}
		first := row.Points[0]
		last := row.Points[len(row.Points)-1]
		// A RAR can turn into RAW or vanish in a bigger DDT, so total
		// detection may shrink a little.
		if last.RAWFrac+last.RARFrac+1e-9 < first.RAWFrac+first.RARFrac-0.02 {
			t.Errorf("%s: total detection shrank: %v -> %v", row.Workload.Name, first, last)
		}
		// RAW detection never shrinks with a bigger DDT: a store that
		// stays resident at one size stays resident at every larger size
		// (LRU inclusion). Every point shares one denominator, so the
		// comparison is exact.
		for i := 1; i < len(row.Points); i++ {
			if prev, p := row.Points[i-1], row.Points[i]; p.RAWFrac < prev.RAWFrac {
				t.Errorf("%s: RAW detection shrank from %d to %d entries: %v -> %v",
					row.Workload.Name, prev.DDTSize, p.DDTSize, prev.RAWFrac, p.RAWFrac)
			}
		}
		if _, ok := row.Point(128); !ok {
			t.Errorf("%s: missing 128-entry point", row.Workload.Name)
		}
	}
}

func TestFig6AdaptiveCutsMisspeculation(t *testing.T) {
	res, err := mustByID(t, "fig6").Run(subset("go", "m88", "tom"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig6Result)
	for _, row := range r.Rows {
		if row.TwoBit.Misp() > row.OneBit.Misp()+1e-9 {
			t.Errorf("%s: adaptive misspeculates more (%.4f) than non-adaptive (%.4f)",
				row.Workload.Name, row.TwoBit.Misp(), row.OneBit.Misp())
		}
		if row.OneBit.Coverage()+1e-9 < row.TwoBit.Coverage()-0.02 {
			t.Errorf("%s: 1-bit coverage below 2-bit", row.Workload.Name)
		}
	}
}

func TestFig7FractionsInRange(t *testing.T) {
	for _, id := range []string{"fig7a", "fig7b"} {
		res, err := mustByID(t, id).Run(subset("go", "hyd"))
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*Fig7Result)
		for _, row := range r.Rows {
			if l := row.Local(); l < 0 || l > 1.0001 {
				t.Errorf("locality total %v out of range", l)
			}
			if c := row.Coverage(); c < 0 || c > 1.0001 {
				t.Errorf("coverage %v out of range", c)
			}
		}
	}
}

func TestTable52Exclusive(t *testing.T) {
	res, err := mustByID(t, "table52").Run(subset("vor", "hyd"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table52Result)
	for _, row := range r.Rows {
		if row.CloakOnlyTotal()+row.VPOnly > 1.0001 {
			t.Errorf("%s: exclusive fractions exceed 1", row.Workload.Name)
		}
	}
	// vor is a strong cloaking case; hyd is the paper's VP showcase.
	var vorRow, hydRow Table52Row
	for _, row := range r.Rows {
		switch row.Workload.Abbrev {
		case "vor":
			vorRow = row
		case "hyd":
			hydRow = row
		}
	}
	if vorRow.CloakOnlyTotal() <= vorRow.VPOnly {
		t.Errorf("vor: cloaking-only %.3f <= VP-only %.3f", vorRow.CloakOnlyTotal(), vorRow.VPOnly)
	}
	if hydRow.VPOnly <= hydRow.CloakOnlyTotal() {
		t.Errorf("hyd: VP-only %.3f <= cloaking-only %.3f", hydRow.VPOnly, hydRow.CloakOnlyTotal())
	}
}

func TestFig9Shapes(t *testing.T) {
	res, err := mustByID(t, "fig9").Run(subset("gcc", "su2"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig9Result)
	for _, row := range r.Rows {
		// The combined mechanism never loses noticeably to RAW-only.
		if row.SelRAWRAR < row.SelRAW-0.02 {
			t.Errorf("%s: RAW+RAR (%.3f) below RAW (%.3f)",
				row.Workload.Name, row.SelRAWRAR, row.SelRAW)
		}
		if row.BaseCycles == 0 {
			t.Errorf("%s: zero base cycles", row.Workload.Name)
		}
	}
	if !strings.Contains(r.String(), "Figure 9") {
		t.Error("rendering lacks title")
	}
}

func TestFig10LargerThanFig9(t *testing.T) {
	opt := subset("li", "gcc")
	r9, err := mustByID(t, "fig9").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	r10, err := mustByID(t, "fig10").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	a := r9.(*Fig9Result)
	b := r10.(*Fig9Result)
	// The paper: speedups are significantly higher (often double) without
	// memory dependence speculation — at minimum, not smaller overall.
	if b.SelRAWRARAll < a.SelRAWRARAll-0.02 {
		t.Errorf("fig10 mean %.3f below fig9 mean %.3f", b.SelRAWRARAll, a.SelRAWRARAll)
	}
	if !strings.Contains(b.String(), "Figure 10") {
		t.Error("fig10 rendering lacks title")
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablmerge", "ablsplit", "abldpnt"} {
		e, _ := ByID(id)
		res, err := e.Run(subset("go", "su2"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r := res.(*AblationResult)
		if len(r.Rows) != 2 || len(r.Rows[0].Cells) != len(r.Variants) {
			t.Errorf("%s: shape %dx%d", id, len(r.Rows), len(r.Rows[0].Cells))
		}
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				if c.Coverage < 0 || c.Coverage > 1 || c.Misp < 0 || c.Misp > 1 {
					t.Errorf("%s: out-of-range cell %+v", id, c)
				}
			}
		}
		if !strings.Contains(r.String(), "Ablation") {
			t.Errorf("%s: rendering broken", id)
		}
	}
}

// TestRegisterRefusesOtherCells: RunSuite has two job kinds, so
// register refuses an experiment whose Cells is neither a pass runner
// nor a timing runner.
func TestRegisterRefusesOtherCells(t *testing.T) {
	for _, r := range []CellRunner{nil, cellRunner[int]{}} {
		func() {
			n := len(registry)
			defer func() {
				if recover() == nil {
					t.Errorf("register accepted Cells %#v", r)
				}
				registry = registry[:n]
			}()
			register(Experiment{ID: "plain", Cells: r})
		}()
	}
}

func TestMeansByClass(t *testing.T) {
	ws := []workload.Workload{
		{Abbrev: "a", Class: workload.Int},
		{Abbrev: "b", Class: workload.FP},
		{Abbrev: "c", Class: workload.FP},
	}
	rows := []float64{1, 2, 4}
	i, f, all := meansByClass(ws, rows, func(v float64) float64 { return v })
	if i != 1 || f != 3 || all != 7.0/3 {
		t.Errorf("means = %v %v %v", i, f, all)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.size(5) != 5 {
		t.Error("size default")
	}
	o.Size = 9
	if o.size(5) != 9 {
		t.Error("size override")
	}
	if o.parallelism() < 1 {
		t.Error("parallelism")
	}
	if len(o.workloads()) != 18 {
		t.Error("workload default")
	}
}

func TestExtensionExperiments(t *testing.T) {
	opt := subset("com", "hyd")

	memspec, err := mustByID(t, "ablmemspec").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range memspec.(*MemSpecResult).Rows {
		if row.NaiveIPC <= 0 || row.NoSpecIPC <= 0 || row.StoreSetsIPC <= 0 {
			t.Errorf("%s: zero IPC: %+v", row.Workload.Name, row)
		}
		// Speculation never loses to no-speculation in our model.
		if row.NaiveIPC < row.NoSpecIPC-0.01 {
			t.Errorf("%s: naive IPC %.2f below no-spec %.2f",
				row.Workload.Name, row.NaiveIPC, row.NoSpecIPC)
		}
	}

	rec, err := mustByID(t, "ablrecovery").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rec.(*RecoveryResult).Rows {
		// The Section 5.6.1 equivalence: selective within a point of oracle.
		if d := row.Selective - row.Oracle; d > 0.01 || d < -0.01 {
			t.Errorf("%s: selective %.3f vs oracle %.3f", row.Workload.Name,
				row.Selective, row.Oracle)
		}
	}

	syn, err := mustByID(t, "synergy").Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range syn.(*SynergyResult).Rows {
		if row.Hybrid+1e-9 < row.Cloak || row.Hybrid+1e-9 < row.VP {
			t.Errorf("%s: hybrid %.3f below a component (%.3f, %.3f)",
				row.Workload.Name, row.Hybrid, row.Cloak, row.VP)
		}
		if row.Hybrid > row.Cloak+row.VP+1e-9 {
			t.Errorf("%s: hybrid exceeds the union bound", row.Workload.Name)
		}
	}
}
