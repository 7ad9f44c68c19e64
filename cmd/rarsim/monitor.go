package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"rarpred/internal/metrics"
)

// Live monitoring for long sweeps: -progress prints a periodic one-line
// status on stderr (cells done/total, ETA from the cells done so far,
// cache residency, Minsts/s), read from the default metrics registry
// that the trace cache, scheduler and simulators report through. On a
// TTY the line redraws in place via carriage return; piped to a file it
// degrades to plain lines. It never writes to stdout, so the suite
// report stays byte-identical with monitoring on.

// progressInterval paces the -progress ticker: fast enough to feel
// live, slow enough that a piped log stays readable.
const progressInterval = time.Second

// progressMonitor renders the periodic status line.
type progressMonitor struct {
	out    io.Writer
	tty    bool
	start  time.Time
	stop   chan struct{}
	done   sync.WaitGroup
	ticker *time.Ticker

	// Pre-resolved instruments (get-or-create returns the registry's
	// own, so the ticker shares books with the subsystems).
	cellsTotal *metrics.Gauge
	cellsDone  *metrics.Gauge
	cacheBytes *metrics.Gauge
	funcInsts  *metrics.Counter
	pipeInsts  *metrics.Counter

	lastInsts uint64
	lastTick  time.Time
}

// isTTY reports whether w is a terminal (a character device). Anything
// that is not an *os.File — a pipe, a test buffer — is not.
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	return err == nil && info.Mode()&os.ModeCharDevice != 0
}

// startProgress launches the ticker goroutine; the returned monitor's
// close() stops it and finishes the redraw line.
func startProgress(out io.Writer) *progressMonitor {
	r := metrics.Default()
	m := &progressMonitor{
		out:        out,
		tty:        isTTY(out),
		start:      time.Now(),
		stop:       make(chan struct{}),
		ticker:     time.NewTicker(progressInterval),
		cellsTotal: r.Gauge("suite.cells_total"),
		cellsDone:  r.Gauge("suite.cells_done"),
		cacheBytes: r.Gauge("trace.cache.bytes"),
		funcInsts:  r.Counter("funcsim.insts_committed"),
		pipeInsts:  r.Counter("pipeline.insts_committed"),
	}
	m.lastTick = m.start
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		for {
			select {
			case <-m.stop:
				return
			case <-m.ticker.C:
				m.render()
			}
		}
	}()
	return m
}

// close stops the ticker, draws one final status so the run's last
// state is on record, and (on a TTY) moves off the redraw line.
func (m *progressMonitor) close() {
	m.ticker.Stop()
	close(m.stop)
	m.done.Wait()
	m.render()
	if m.tty {
		fmt.Fprintln(m.out)
	}
}

// render draws one status line. The cells/ETA fields show once the
// suite scheduler has populated its gauges (a tick before the sweep
// starts finds them zero); cache residency and throughput always show.
func (m *progressMonitor) render() {
	now := time.Now()
	insts := m.funcInsts.Value() + m.pipeInsts.Value()
	rate := float64(insts-m.lastInsts) / now.Sub(m.lastTick).Seconds() / 1e6
	m.lastInsts, m.lastTick = insts, now

	line := fmt.Sprintf("rarsim: %s", fmtDuration(now.Sub(m.start)))
	if total := m.cellsTotal.Value(); total > 0 {
		line += fmt.Sprintf(" | cells %d/%d", m.cellsDone.Value(), total)
		if eta, ok := m.eta(now); ok {
			line += fmt.Sprintf(" eta %s", fmtDuration(eta))
		}
	}
	line += fmt.Sprintf(" | cache %.1f MiB | %.1f Minsts/s",
		float64(m.cacheBytes.Value())/(1<<20), rate)

	if m.tty {
		// Redraw in place; pad so a shrinking line leaves no residue.
		fmt.Fprintf(m.out, "\r%-78s", line)
		return
	}
	fmt.Fprintln(m.out, line)
}

// eta projects time remaining from the cells done so far: elapsed
// scaled by the cells not yet done. No cell done yet means no estimate.
func (m *progressMonitor) eta(now time.Time) (time.Duration, bool) {
	total, done := m.cellsTotal.Value(), m.cellsDone.Value()
	if total <= 0 || done <= 0 {
		return 0, false
	}
	if done >= total {
		return 0, true
	}
	elapsed := now.Sub(m.start)
	return time.Duration(float64(elapsed) * float64(total-done) / float64(done)), true
}

// fmtDuration renders a duration as compact h/m/s for the status line.
func fmtDuration(d time.Duration) string {
	d = d.Round(time.Second)
	if d >= time.Hour {
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
	if d >= time.Minute {
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	}
	return fmt.Sprintf("%ds", int(d.Seconds()))
}
