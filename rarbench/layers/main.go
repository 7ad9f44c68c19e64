// Command layers is the benchmark's layer probe. It times calls into
// each rarpred layer package on the 18 analog programs, from outside the
// packages, and prints one JSON object: the per-layer host costs and the
// exact simulated counts they were measured over.
//
//	go build -o layers . && ./layers -dir <empty scratch dir> [-ref 100] [-timing 12]
//
// Every call runs on one goroutine and is timed with the wall clock. A
// layer that consumes a decoded memory trace (cloak, locality, vpred) is
// charged its replay time minus the bare decode time of the same stream,
// and recording is charged its time minus the bare functional run of the
// same program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rarpred/internal/cloak"
	"rarpred/internal/experiments"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/locality"
	"rarpred/internal/pipeline"
	"rarpred/internal/store"
	"rarpred/internal/trace"
	"rarpred/internal/vpred"
	"rarpred/internal/workload"
)

// maxInsts is the functional instruction budget every experiment records
// under; it is part of the stream's store key.
const maxInsts = 2_000_000_000

// ledger accumulates host time and work counts per layer over the suite.
type ledger struct {
	assemble time.Duration

	funcsim      time.Duration
	funcsimInsts uint64

	record, decode        time.Duration
	events, loads         uint64
	rawBytes, packedBytes int64

	ddtSweep       time.Duration
	ddtRAW, ddtRAR uint64

	engine                             time.Duration
	cloakLoads, covered, used, mispred uint64

	locality                     time.Duration
	localitySinks, distanceSinks uint64

	vpred              time.Duration
	vpLoads, vpCorrect uint64

	storeWrite, storeLoad time.Duration
	written, read         uint64

	irecord, idecode time.Duration
	iinsts, imems    uint64

	pipe                  [2]time.Duration
	pipeInsts, pipeCycles [2]uint64
}

func main() {
	ref := flag.Int("ref", workload.ReferenceSize, "size parameter of the memory-trace (functional) recordings")
	timing := flag.Int("timing", workload.TimingSize, "size parameter of the instruction-stream (timing) recordings")
	dir := flag.String("dir", "", "scratch directory for the store's artifacts (required)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "layers: -dir required")
		os.Exit(2)
	}
	st, err := store.Open(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
	var l ledger
	for _, w := range workload.All() {
		if err := l.memory(w, *ref, st); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
			os.Exit(1)
		}
		if err := l.timing(w, *timing); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(l.report()); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// memory drives one workload's functional path: assemble, run, record,
// persist and reload, decode, and each trace analyzer.
func (l *ledger) memory(w workload.Workload, size int, st *store.Store) error {
	var prog *isa.Program
	l.assemble += timed(func() { prog = w.Assemble(size) })

	var counts funcsim.Counts
	var err error
	run := timed(func() { counts, err = funcsim.RunProgram(prog, maxInsts) })
	if err != nil {
		return fmt.Errorf("%s: funcsim: %w", w.Name, err)
	}
	l.funcsim += run
	l.funcsimInsts += counts.Insts

	var tr *trace.Stream
	rec := timed(func() { tr, err = trace.RecordStream(prog, maxInsts) })
	if err != nil {
		return fmt.Errorf("%s: record: %w", w.Name, err)
	}
	if tr.Counts != counts {
		return fmt.Errorf("%s: recording committed %+v, bare run %+v", w.Name, tr.Counts, counts)
	}
	l.record += rec - run
	l.events += uint64(tr.Len())
	l.loads += tr.Loads()
	l.rawBytes += tr.RawBytes()
	l.packedBytes += tr.Bytes()

	if err := l.persist(w, size, st, tr); err != nil {
		return err
	}

	decode := timed(func() { tr.Replay(trace.SinkFuncs{}) })
	l.decode += decode
	l.ddtSweep += timed(func() { l.sweepDDT(tr) }) - decode
	l.engine += timed(func() { l.runEngine(tr) }) - decode
	l.locality += timed(func() { l.runLocality(tr) }) - decode
	l.vpred += timed(func() { l.runVpred(tr) }) - decode
	return nil
}

// persist writes the stream into the store and loads it back.
func (l *ledger) persist(w workload.Workload, size int, st *store.Store, tr *trace.Stream) error {
	key := trace.Key{Workload: w.Name, Size: size, MaxInsts: maxInsts}
	before := st.Stats()
	var err error
	l.storeWrite += timed(func() { err = st.Store(key, tr) })
	if err != nil {
		return fmt.Errorf("%s: store write: %w", w.Name, err)
	}
	mid := st.Stats()
	var got trace.Cached
	l.storeLoad += timed(func() { got, err = st.Load(key) })
	if err != nil {
		return fmt.Errorf("%s: store load: %w", w.Name, err)
	}
	if s, ok := got.(*trace.Stream); !ok || s.Len() != tr.Len() {
		return fmt.Errorf("%s: store load returned %T, not the %d-event stream written", w.Name, got, tr.Len())
	}
	l.written += mid.BytesWritten - before.BytesWritten
	l.read += st.Stats().BytesRead - mid.BytesRead
	return nil
}

// sweepDDT replays the stream into one combined DDT per Figure 5 size,
// in lockstep on this goroutine.
func (l *ledger) sweepDDT(tr *trace.Stream) {
	sinks := make([]trace.Sink, len(experiments.Fig5Sizes))
	for i, size := range experiments.Fig5Sizes {
		d := cloak.NewDDT(size, true)
		sinks[i] = trace.SinkFuncs{
			OnLoad: func(pc, addr, _ uint32) {
				if dep, ok := d.Load(addr, pc); ok {
					if dep.Kind == cloak.DepRAW {
						l.ddtRAW++
					} else {
						l.ddtRAR++
					}
				}
			},
			OnStore: func(pc, addr, _ uint32) { d.Store(addr, pc) },
		}
	}
	tr.Replay(sinks...)
}

func (l *ledger) runEngine(tr *trace.Stream) {
	e := cloak.New(cloak.DefaultConfig())
	tr.Replay(trace.SinkFuncs{
		OnLoad:  func(pc, addr, value uint32) { e.Load(pc, addr, value) },
		OnStore: e.Store,
	})
	s := e.Stats()
	l.cloakLoads += s.Loads
	l.covered += s.Covered()
	l.used += s.UsedRAW + s.UsedRAR
	l.mispred += s.Mispredicted()
}

func (l *ledger) runLocality(tr *trace.Stream) {
	rar := locality.NewRARLocality(0)
	dist := locality.NewDistanceAnalyzer()
	tr.Replay(trace.SinkFuncs{
		OnLoad: func(pc, addr, _ uint32) {
			rar.Load(pc, addr)
			dist.Load(pc, addr)
		},
		OnStore: func(pc, addr, _ uint32) {
			rar.Store(pc, addr)
			dist.Store(pc, addr)
		},
	})
	l.localitySinks += rar.SinkLoads()
	l.distanceSinks += dist.Sinks()
}

func (l *ledger) runVpred(tr *trace.Stream) {
	p := vpred.NewLastValue(vpred.DefaultEntries)
	tr.Replay(trace.SinkFuncs{OnLoad: func(pc, _, value uint32) { p.Access(pc, value) }})
	lookups, _, correct := p.Stats()
	l.vpLoads += lookups
	l.vpCorrect += correct
}

// pipelineConfigs are the base processor and the selective RAW+RAR
// cloaking/bypassing mechanism of Figure 9.
func pipelineConfigs() [2]pipeline.Config {
	rawrar := pipeline.DefaultConfig()
	cc := cloak.TimingConfig(cloak.ModeRAWRAR)
	rawrar.Cloak = &cc
	rawrar.Bypassing = true
	rawrar.Recovery = pipeline.Selective
	return [2]pipeline.Config{pipeline.DefaultConfig(), rawrar}
}

// timing drives one workload's timing path: record the instruction
// stream, walk it, and replay it into both pipeline configurations.
func (l *ledger) timing(w workload.Workload, size int) error {
	var prog *isa.Program
	l.assemble += timed(func() { prog = w.Assemble(size) })

	var is *trace.IStream
	var err error
	l.irecord += timed(func() { is, err = trace.RecordIStream(prog, maxInsts) })
	if err != nil {
		return fmt.Errorf("%s: instruction record: %w", w.Name, err)
	}
	l.iinsts += is.Len()
	l.imems += is.MemEvents()
	l.rawBytes += is.RawBytes()
	l.packedBytes += is.Bytes()

	var insts, mems uint64
	l.idecode += timed(func() {
		c := is.Cursor()
		for _, _, ok := c.NextInst(); ok; _, _, ok = c.NextInst() {
			insts++
		}
		for _, _, ok := c.NextMem(); ok; _, _, ok = c.NextMem() {
			mems++
		}
	})
	if insts != is.Len() || mems != is.MemEvents() {
		return fmt.Errorf("%s: cursor walked %d insts, %d mems of %d, %d", w.Name, insts, mems, is.Len(), is.MemEvents())
	}

	for i, cfg := range pipelineConfigs() {
		var res pipeline.Result
		l.pipe[i] += timed(func() { res, err = pipeline.NewReplay(prog, is, cfg).Run() })
		if err != nil {
			return fmt.Errorf("%s: pipeline config %d: %w", w.Name, i, err)
		}
		l.pipeInsts[i] += res.Insts
		l.pipeCycles[i] += res.Cycles
	}
	return nil
}

func perUnit(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mibPerSecond(bytes uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// report is the probe's output: host-time metrics under "layers" (they
// vary run to run) and simulated counts under "counts" (they must repeat
// exactly for a given pair of sizes).
func (l *ledger) report() map[string]any {
	return map[string]any{
		"layers": map[string]float64{
			"workload.assemble_s":          l.assemble.Seconds(),
			"funcsim.ns_per_inst":          perUnit(l.funcsim, l.funcsimInsts),
			"trace.record_ns_per_event":    perUnit(l.record, l.events),
			"trace.irecord_ns_per_inst":    perUnit(l.irecord, l.iinsts),
			"trace.decode_ns_per_event":    perUnit(l.decode, l.events),
			"trace.idecode_ns_per_inst":    perUnit(l.idecode, l.iinsts),
			"store.write_mib_per_s":        mibPerSecond(l.written, l.storeWrite),
			"store.load_mib_per_s":         mibPerSecond(l.read, l.storeLoad),
			"cloak.ddt_sweep_ns_per_event": perUnit(l.ddtSweep, l.events),
			"cloak.engine_ns_per_event":    perUnit(l.engine, l.events),
			"locality.ns_per_event":        perUnit(l.locality, l.events),
			"vpred.ns_per_load":            perUnit(l.vpred, l.loads),
			"pipeline.ns_per_inst.base":    perUnit(l.pipe[0], l.pipeInsts[0]),
			"pipeline.ns_per_inst.rawrar":  perUnit(l.pipe[1], l.pipeInsts[1]),
			"trace.compression_ratio":      float64(l.rawBytes) / float64(l.packedBytes),
			"cloak.coverage":               ratio(l.covered, l.cloakLoads),
			"cloak.misspec_rate":           ratio(l.mispred, l.used),
			"pipeline.ipc.base":            ratio(l.pipeInsts[0], l.pipeCycles[0]),
			"pipeline.ipc.rawrar":          ratio(l.pipeInsts[1], l.pipeCycles[1]),
		},
		"counts": map[string]uint64{
			"funcsim.insts":           l.funcsimInsts,
			"trace.events":            l.events,
			"trace.loads":             l.loads,
			"trace.raw_bytes":         uint64(l.rawBytes),
			"trace.packed_bytes":      uint64(l.packedBytes),
			"trace.iinsts":            l.iinsts,
			"trace.imems":             l.imems,
			"store.written_bytes":     l.written,
			"store.read_bytes":        l.read,
			"cloak.ddt_raw":           l.ddtRAW,
			"cloak.ddt_rar":           l.ddtRAR,
			"cloak.loads":             l.cloakLoads,
			"cloak.covered":           l.covered,
			"cloak.used":              l.used,
			"cloak.mispredicted":      l.mispred,
			"locality.rar_sinks":      l.localitySinks,
			"locality.distance_sinks": l.distanceSinks,
			"vpred.loads":             l.vpLoads,
			"vpred.correct":           l.vpCorrect,
			"pipeline.insts.base":     l.pipeInsts[0],
			"pipeline.cycles.base":    l.pipeCycles[0],
			"pipeline.insts.rawrar":   l.pipeInsts[1],
			"pipeline.cycles.rawrar":  l.pipeCycles[1],
		},
	}
}
