package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rarpred/internal/cloak"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/metrics"
	"rarpred/internal/trace"
)

// stepInsts is the instructions one step of a walk decodes, and every
// Sim still running times, before the next step: funcsim.InterruptEvery,
// so each Sim's interrupt poll falls on a step's last instruction.
const stepInsts = funcsim.InterruptEvery

// Work counters of the replayed timing runs: streamWalks counts walks
// (one per Walk call, however many Sims it times), and engineLoads the
// loads the walks' cloak engines decide, added once per walk. A timing
// job walks its recording once, and its engines decide each load once
// per distinct cloak config.
var (
	streamWalks = metrics.Default().Counter("pipeline.stream_walks")
	engineLoads = metrics.Default().Counter("pipeline.engine_loads")
)

// NewReplay prepares a timing simulation of prog fed from is, a
// recording of prog's committed instruction stream at the same size,
// instead of a live interpreter. Its Run is a walk of one Sim (Walk),
// and its Result is identical to New(prog, cfg).Run()'s: the feed is the
// only difference, which is what lets one recording serve every timing
// configuration of an experiment. Construction does not verify that is
// was recorded from prog (the -check differential does).
func NewReplay(prog *isa.Program, is *trace.IStream, cfg Config) *Sim {
	s := newSim(prog, cfg)
	s.is = is
	return s
}

// Walk times sims over the recording they were made for (NewReplay) in
// one pass. The sims must share the program, the recording and the
// fields of Config the machine reads (LSQSize, SampleRatio and
// ObservationSize); Walk panics otherwise. Their cloak configs may
// differ. Each step of the walk decodes the next stepInsts instructions
// and the memory records they own once, runs the walk's cloak engines
// over those accesses, one decision column per distinct cloak config,
// runs the walk's one machine over the instructions into a column of
// outcomes, then times every Sim still running over the step, at most
// parallel Sims at a time. The decisions and the outcomes depend only on
// the committed stream in program order, so they are the ones each Sim's
// own engine and machine would produce (New's live feed still produces
// them so, as the oracle). A panic in any Sim is re-raised in the
// caller's goroutine.
//
// Walk returns each Sim's Result and error, index-aligned with sims. A
// Sim that fails (an interrupt, or a step the stream cannot deliver)
// stops there, and its Result is the partial one Run would return; the
// others go on.
func Walk(sims []*Sim, parallel int) ([]Result, []error) {
	w := newWalker(sims)
	defer func() {
		for _, s := range sims {
			s.flush()
		}
	}()
	streamWalks.Add(1)
	var (
		running = make([]*Sim, 0, len(sims))
		n       int
		err     error
	)
	step := func(i int) { running[i].walkStep(w, n) } // built once: no allocation per step
	for {
		running = running[:0]
		for _, s := range sims {
			if !s.done {
				running = append(running, s)
			}
		}
		if len(running) == 0 {
			break
		}
		if n, err = w.decode(); err != nil {
			for _, s := range running {
				s.err, s.done = err, true
			}
			break
		}
		fanOut(len(running), parallel, step)
		if n < stepInsts {
			break
		}
	}
	if w.bank != nil {
		for _, e := range w.bank.Engines() {
			engineLoads.Add(e.Stats().Loads)
		}
	}
	res, errs := make([]Result, len(sims)), make([]error, len(sims))
	for i, s := range sims {
		if errs[i] = s.err; s.err == nil {
			s.finish()
		}
		res[i] = s.res
	}
	return res, errs
}

// walker is one walk's decoder, engines and machine, and the step it
// last decoded: at most stepInsts instruction records with one outcome
// each, the memory records they own and, for each cloak config, one
// decision per memory record.
type walker struct {
	insts []isa.Inst
	dec   []decoded
	cur   trace.ICursor
	mach  *machine

	idx, next   []uint32  // the step's instruction records
	outs        []outcome // and the machine's outcome for each
	addr, value []uint32  // the memory records they own, in order
	kinds       []uint8   // each memory record's kind (trace.Kind)
	pcs         []uint32  // and its instruction's PC

	// The engines, when any Sim is cloaked: a bank with one engine per
	// distinct cloak config (ccs) behind the walk's own address
	// numbering, fed the step's accesses; decs[k] is ccs[k]'s column.
	bank *cloak.Bank
	ccs  []cloak.Config
	ids  *trace.AddrIDs
	decs [][]cloak.Decision
}

func newWalker(sims []*Sim) *walker {
	if len(sims) == 0 {
		panic("pipeline: Walk of no Sims")
	}
	s0 := sims[0]
	sc := false
	cols := make(map[cloak.Config]int)
	var ccs []cloak.Config
	for _, s := range sims {
		if s.is == nil || s.is != s0.is || s.prog != s0.prog {
			panic("pipeline: Walk's Sims must replay one recording of one program (NewReplay)")
		}
		if s.cfg.LSQSize != s0.cfg.LSQSize || s.cfg.SampleRatio != s0.cfg.SampleRatio ||
			s.cfg.ObservationSize != s0.cfg.ObservationSize {
			panic("pipeline: Walk's Sims must share LSQSize, SampleRatio and ObservationSize")
		}
		sc = sc || s.sc
		if s.cfg.Cloak == nil {
			continue
		}
		k, ok := cols[*s.cfg.Cloak]
		if !ok {
			k = len(ccs)
			cols[*s.cfg.Cloak] = k
			ccs = append(ccs, *s.cfg.Cloak)
		}
		s.col = k
	}
	w := &walker{
		insts: s0.prog.Insts,
		dec:   s0.dec,
		cur:   s0.is.Cursor(),
		mach:  newMachine(s0.cfg, sc),
		idx:   make([]uint32, stepInsts),
		next:  make([]uint32, stepInsts),
		outs:  make([]outcome, stepInsts),
		addr:  make([]uint32, stepInsts),
		value: make([]uint32, stepInsts),
		kinds: make([]uint8, stepInsts),
		pcs:   make([]uint32, stepInsts),
	}
	if len(ccs) > 0 {
		w.ccs = ccs
		w.bank = cloak.NewBank()
		for _, cc := range ccs {
			w.bank.Decisions(cc)
		}
		w.ids = trace.NewAddrIDs(w.bank)
		w.decs = make([][]cloak.Decision, len(ccs))
	}
	return w
}

// decode reads the walk's next step, up to stepInsts instruction records
// and the memory records they own, runs the engines over those accesses
// and the machine over the instructions. It returns the instructions
// read, fewer than stepInsts only at the end of the stream, or an error
// for a step the stream cannot deliver whole.
func (w *walker) decode() (int, error) {
	n := w.cur.ReadInsts(w.idx, w.next)
	m := 0
	for _, idx := range w.idx[:n] {
		if idx >= uint32(len(w.insts)) {
			return 0, fmt.Errorf("pipeline: PC 0x%08x outside text", idx*4)
		}
		switch w.dec[idx].kind {
		case kLoad:
			w.kinds[m], w.pcs[m] = uint8(trace.KindLoad), idx*4
			m++
		case kStore:
			w.kinds[m], w.pcs[m] = uint8(trace.KindStore), idx*4
			m++
		}
	}
	if got := w.cur.ReadMems(w.addr[:m], w.value[:m]); got < m {
		return 0, fmt.Errorf("pipeline: replay stream out of memory events at PC 0x%08x", w.pcs[got])
	}
	if w.bank != nil && m > 0 {
		w.ids.WalkChunk(w.kinds[:m], w.pcs[:m], w.addr[:m], w.value[:m])
		for k, cc := range w.ccs {
			w.decs[k] = w.bank.Decisions(cc)
		}
	}
	m = 0
	for i, idx := range w.idx[:n] {
		kind := w.dec[idx].kind
		var addr uint32
		if kind == kLoad || kind == kStore {
			addr = w.addr[m]
			m++
		}
		w.outs[i] = w.mach.next(w.insts[idx], kind, idx*4, w.next[i], addr)
	}
	return n, nil
}

// walkStep times the first n instructions of the walk's current step,
// stopping early at cfg.MaxInsts or a failed interrupt poll. It rebuilds
// the execution profile as it goes, so mid-run invariant sweeps see the
// same consistent tallies a live interpreter would report.
func (s *Sim) walkStep(w *walker, n int) {
	insts, nexts, outs := w.insts, w.next[:n], w.outs[:n]
	m := 0
	for i, idx := range w.idx[:n] {
		in := insts[idx]
		pc := idx * 4
		s.st.Inst, s.st.PC, s.st.NextPC, s.st.Out = in, pc, nexts[i], outs[i]
		s.counts.Insts++
		switch s.dec[idx].kind {
		case kLoad:
			s.counts.Loads++
			s.memRecord(w, m)
			m++
		case kStore:
			s.counts.Stores++
			s.memRecord(w, m)
			m++
		case kBranch:
			s.counts.Branches++
			if nexts[i] != pc+4 {
				s.counts.Taken++
			}
		case kJump:
			if in.Op == isa.OpJal || in.Op == isa.OpJalr {
				s.counts.Calls++
			}
		}
		if err := s.commit(); err != nil {
			s.err, s.done = err, true
			return
		}
		if s.atLimit() {
			s.done = true
			return
		}
	}
}

// memRecord fills the current instruction's memory fields from the
// step's m-th memory record.
func (s *Sim) memRecord(w *walker, m int) {
	s.st.Addr, s.st.Value = w.addr[m], w.value[m]
	if s.srt != nil {
		s.st.Dec = w.decs[s.col][m]
	}
}

// fanOut calls f(i) for every i in [0, n) on at most limit goroutines at
// once, the caller's among them, and returns once every call has. A
// panic in any call is re-raised in the caller's goroutine after the
// others return, so the caller's recover sees it.
func fanOut(n, limit int, f func(i int)) {
	limit = min(limit, n)
	if limit <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		taken    atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if panicked == nil {
					panicked = p
				}
				mu.Unlock()
			}
		}()
		for i := int(taken.Add(1)) - 1; i < n; i = int(taken.Add(1)) - 1 {
			f(i)
		}
	}
	wg.Add(limit - 1)
	for k := 1; k < limit; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
