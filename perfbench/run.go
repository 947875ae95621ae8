package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"immune/internal/obs"
)

// acc accumulates measured segments: the steady window, or the slots of
// the crash-failover cycles. Segments are cut into sub-windows of at most
// subWindow; rates are reported as the median over sub-windows, so a
// short disturbance (a collection, a noisy neighbour) moves one
// sub-window rather than the run's figure.
type acc struct {
	dur       time.Duration
	completed int64
	cpu       time.Duration
	latency   []float64 // ms, ops due inside a segment
	lag       []float64 // ms, open-loop dispatch lag inside a segment

	heapLive []float64 // MB live after a full collection, per segment
	rates    []float64 // completions per second, per sub-window
	cpuOps   []float64 // µs of process CPU per completion, per sub-window
	tailLat  []float64 // p99 latency (ms) of each sub-window with ≥1000 samples

	// traced passes only
	counters      map[string]uint64
	hists         map[string]obs.HistogramValue
	gcCPU, cpuAll float64 // runtime/metrics cpu-seconds
	alloc         uint64
	profNS        map[string]float64
	profiles      [][]byte // gzipped pprof, one per segment
	sendQueuePeak int64
	inflightPeak  int64
}

func newAcc() *acc {
	return &acc{counters: map[string]uint64{}, hists: map[string]obs.HistogramValue{}, profNS: map[string]float64{}}
}

func (a *acc) cpuPerOp() float64 {
	if a.completed == 0 {
		return 0
	}
	return us(a.cpu) / float64(a.completed)
}

func (a *acc) hist(name string, q float64) float64 { return us(a.hists[name].Quantile(q)) }

// latencyP99 is the median over sub-windows of their p99 latency when the
// sub-windows hold enough samples for a p99, else the tail quantile of
// the whole window (crash-failover, whose slots are short).
func (a *acc) latencyP99() (float64, string) {
	if len(a.tailLat) > 0 {
		return median(a.tailLat), fmt.Sprintf("median of %d sub-window p99s", len(a.tailLat))
	}
	q := tailQuantile(len(a.latency))
	return quantile(a.latency, q), fmt.Sprintf("p%g of %d samples", q*100, len(a.latency))
}

// subWindow bounds a sub-window: long enough for 1000 samples, hence a
// p99, at rpc-open's rate.
const subWindow = 2500 * time.Millisecond

// mark is the load's progress at one instant of a segment.
type mark struct {
	t    time.Time
	sent uint64
	done int64
	cpu  time.Duration
}

// pass is what one measure call observed.
type pass struct {
	attempted, failed int64
	failErr           error // first failed operation's error
	checkErr          error // first output-check failure; the run is incorrect

	setup     []float64 // seconds, one per measured deployment
	idleCores float64
	cycles    []cycle
	win       *acc // the measured window
	fo        *acc // the failover cycles
	spans     *spanLog
}

// opFailed records the error a load stopped with: failed operations count
// against success_ratio, not against the outputs' correctness. A full
// operation log cut the window short, so that run measured nothing.
func (p *pass) opFailed(err error) {
	if errors.Is(err, errOpLogFull) {
		p.fail(err)
	}
	if err != nil && p.failErr == nil {
		p.failErr = err
	}
}

// fastCycles returns the cycles whose exclusion took the fast path, or
// every cycle if none did.
func (p *pass) fastCycles() []cycle {
	var fast []cycle
	for _, c := range p.cycles {
		if !c.slowPath() {
			fast = append(fast, c)
		}
	}
	if len(fast) == 0 {
		return p.cycles
	}
	return fast
}

func (p *pass) fail(err error) {
	if err != nil && p.checkErr == nil {
		p.checkErr = err
	}
}

// segment measures one stretch of load on one deployment.
type segment struct {
	traced bool
	d      *deployment
	l      load
	ops    *opLog

	t0     time.Time
	marks  []mark // sub-window boundaries, starting with the segment's start
	rt0    runtimeSample
	snap0  obs.Snapshot
	prof   bytes.Buffer
	gauges *sampler
}

func beginSegment(d *deployment, l load, ops *opLog, traced bool) (*segment, error) {
	s := &segment{traced: traced, d: d, l: l, ops: ops}
	if traced {
		reg := d.sys.Metrics()
		s.gauges = startSampler(reg.Gauge("ring.send_queue").Load, reg.Gauge("rm.inflight").Load)
		s.snap0 = d.sys.Snapshot()
		s.rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&s.prof); err != nil {
			s.gauges.Stop()
			return nil, err
		}
	}
	s.mark()
	s.t0 = s.marks[0].t
	return s, nil
}

func (s *segment) mark() {
	s.marks = append(s.marks, mark{time.Now(), s.l.sent(), s.ops.completed.Load(), cpuTime()})
}

// run lets the load run for d, marking sub-window boundaries.
func (s *segment) run(d time.Duration) {
	for t := subWindow; t < d; t += subWindow {
		time.Sleep(time.Until(s.t0.Add(t)))
		s.mark()
	}
	time.Sleep(time.Until(s.t0.Add(d)))
}

// end closes the segment and adds it to every accumulator given.
func (s *segment) end(accs ...*acc) error {
	s.mark()
	first, last := s.marks[0], s.marks[len(s.marks)-1]
	for _, a := range accs {
		a.dur += last.t.Sub(first.t)
		a.completed += last.done - first.done
		a.cpu += last.cpu - first.cpu
		for i := 1; i < len(s.marks); i++ {
			m0, m1 := s.marks[i-1], s.marks[i]
			if n := m1.done - m0.done; n > 0 {
				a.rates = append(a.rates, float64(n)/m1.t.Sub(m0.t).Seconds())
				a.cpuOps = append(a.cpuOps, us(m1.cpu-m0.cpu)/float64(n))
			}
		}
	}
	if s.traced {
		if err := s.endTraced(accs); err != nil {
			return err
		}
	}
	// The program's memory under load: what a full collection at the end
	// of the segment, with the load still running, finds live. Peaks of a
	// heap this small mostly track when collections happen to run.
	runtime.GC()
	live := float64(readRuntime().heapLive) / (1 << 20)
	for _, a := range accs {
		a.heapLive = append(a.heapLive, live)
	}
	return nil
}

func (s *segment) endTraced(accs []*acc) error {
	pprof.StopCPUProfile()
	rt1, snap1 := readRuntime(), s.d.sys.Snapshot()
	s.gauges.Stop()
	ns, err := cpuNS(s.prof.Bytes())
	if err != nil {
		return err
	}
	for _, a := range accs {
		for name, v := range snap1.Counters {
			a.counters[name] += v - s.snap0.Counters[name]
		}
		for name, h := range snap1.Histograms {
			a.hists[name] = histSum(a.hists[name], histDelta(s.snap0.Histograms[name], h))
		}
		a.gcCPU += rt1.gcCPU - s.rt0.gcCPU
		a.cpuAll += rt1.totalCPU - s.rt0.totalCPU
		a.alloc += rt1.allocBytes - s.rt0.allocBytes
		for m, v := range ns {
			a.profNS[m] += v
		}
		a.profiles = append(a.profiles, s.prof.Bytes())
		a.sendQueuePeak = max(a.sendQueuePeak, s.gauges.peaks[0].Load())
		a.inflightPeak = max(a.inflightPeak, s.gauges.peaks[1].Load())
	}
	return nil
}

// latencies adds the latencies and dispatch lags of the operations due in
// the segment; call once the load has stopped.
func (s *segment) latencies(open *openLoop, a *acc) {
	for i := 1; i < len(s.marks); i++ {
		lo, hi := s.marks[i-1].sent, s.marks[i].sent
		lat := s.ops.latencies(lo, hi)
		a.latency = append(a.latency, lat...)
		if tailQuantile(len(lat)) == 0.99 {
			a.tailLat = append(a.tailLat, quantile(lat, 0.99))
		}
		if open != nil {
			a.lag = append(a.lag, open.lags(lo, hi)...)
		}
	}
}

// startLoad starts the workload's generator on a deployment.
func startLoad(w workload, o options, d *deployment, ops *opLog, spans *spanLog, seed uint64) (load, *openLoop) {
	if w.rate > 0 {
		l := startOpenLoop(d, ops, spans, seed, w.rate)
		return l, l
	}
	return startClosedLoop(d, ops, spans, seed), nil
}

// measure runs one pass of a workload:
//  1. set-up, o.setups times, each followed by an idle window (set-up
//     time and idle cores are the medians over the deployments, which
//     differ more from each other than one deployment's idle time varies);
//  2. for fig7-sig and rpc-open, load on that deployment: warm-up, the
//     measured window, drain and output checks;
//  3. o.cycles crash-failover cycles, each on a fresh deployment with the
//     workload's load running (see runCycle). For crash-failover the
//     cycles are the measured window.
func measure(w workload, o options, traced bool) (*pass, error) {
	p := &pass{win: newAcc(), fo: newAcc()}
	if traced {
		p.spans = &spanLog{epoch: time.Now()}
	}

	var d *deployment
	var ops *opLog
	var idle []float64
	for i := 0; i < max(1, o.setups); i++ {
		if d != nil {
			d.sys.Stop()
		}
		ops = newOpLog(steadyOps)
		if w.crashInWindow {
			ops = newOpLog(cycleOps) // this deployment runs no load
		}
		var took time.Duration
		var err error
		d, took, err = deploy(w.spec, o.seed, ops, p.spans, o.miscount)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, took.Seconds())
		if o.quiet > 0 {
			runtime.GC() // earlier deployments' garbage is not idle cost
			c0, t0 := cpuTime(), time.Now()
			time.Sleep(o.quiet)
			idle = append(idle, float64(cpuTime()-c0)/float64(time.Since(t0)))
		}
	}
	p.idleCores = median(idle)
	if !w.crashInWindow {
		err := steady(w, o, d, ops, p, traced)
		d.sys.Stop()
		if err != nil {
			return nil, err
		}
	} else {
		d.sys.Stop()
	}

	slot, cycles := time.Duration(0), o.cycles
	if w.crashInWindow {
		// The window is cut into slots of about cycleSlot, one cycle each.
		cycles = max(1, int(o.seconds/cycleSlot))
		slot = o.seconds / time.Duration(cycles)
	}
	for i := 0; i < cycles && p.checkErr == nil; i++ {
		if err := runCycle(w, o, i, slot, p, traced); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// steadyOps and cycleOps size the per-operation logs: far above what the
// steady window (10s at a few thousand ops/s plus warm-up) and one cycle
// dispatch.
const (
	steadyOps = 1 << 19
	cycleOps  = 1 << 16
)

// steady runs the workload's load on d: warm-up, the measured window,
// drain, output checks.
func steady(w workload, o options, d *deployment, ops *opLog, p *pass, traced bool) error {
	l, open := startLoad(w, o, d, ops, p.spans, o.seed)
	if open != nil {
		time.Sleep(o.warm)
	} else if err := warmClosedLoop(ops, l, o.warmOps); err != nil {
		l.stop()
		return err
	}
	s, err := beginSegment(d, l, ops, traced)
	if err != nil {
		l.stop()
		return err
	}
	s.run(o.seconds)
	if err := s.end(p.win); err != nil {
		l.stop()
		return err
	}
	p.opFailed(l.stop())
	s.latencies(open, p.win)
	p.attempted += int64(l.sent())
	p.failed += l.failures()
	p.fail(checkOutputs(d, l, open))
	return nil
}

// runCycle is one crash-failover cycle on a fresh deployment (seeded
// from the workload seed and the cycle number): start the failover load,
// let it flow for settle, crash a server host, wait for exclusion and for
// recovery to full degree, check that the live replicas agree, keep the
// load running for settle more (and, inside the measured window, until
// the cycle's slot is used up), stop it and check the outputs. Then
// reattach the host and wait until it is back in every survivor's view.
//
// The victim rejoins only after the load has stopped, and each cycle gets
// its own deployment, because rejoining under load breaks the system:
// calls in flight around the rejoin are never answered (even when
// re-sent), a surviving replica can stop executing for good, and a second
// crash after a rejoin may never be excluded.
func runCycle(w workload, o options, i int, slot time.Duration, p *pass, traced bool) error {
	w = w.failoverLoad()
	ops := newOpLog(cycleOps)
	seed := o.seed*1000 + uint64(i) + 1
	d, _, err := deploy(w.spec, seed, ops, p.spans, o.miscount)
	if err != nil {
		return fmt.Errorf("cycle %d set-up: %w", i, err)
	}
	defer func() {
		d.sys.Stop()
		runtime.GC() // keep one cycle's garbage out of the next one's idle time
	}()
	l, open := startLoad(w, o, d, ops, p.spans, seed)
	time.Sleep(settle)
	s, err := beginSegment(d, l, ops, traced)
	if err != nil {
		l.stop()
		return err
	}
	c, err := d.crash(p.spans)
	if err == nil && open != nil {
		err = d.awaitAgreement(2 * time.Second)
	}
	if err != nil {
		p.fail(fmt.Errorf("cycle %d: %w", i, err))
	}
	time.Sleep(time.Until(s.t0.Add(slot)))
	time.Sleep(time.Until(c.full.Add(settle)))
	// Inside the window only fast-path cycles count; see the package
	// comment.
	inWindow := slot > 0 && err == nil && !c.slowPath()
	accs := []*acc{p.fo}
	if inWindow {
		accs = append(accs, p.win)
	}
	if err := s.end(accs...); err != nil {
		l.stop()
		return err
	}
	p.opFailed(l.stop())
	if inWindow {
		s.latencies(open, p.win)
	}
	p.attempted += int64(l.sent())
	p.failed += l.failures()
	p.fail(checkOutputs(d, l, open))
	if p.checkErr == nil {
		last := s.marks[len(s.marks)-1]
		c.outage = ops.longestGap(last.sent, c.crash, last.t)
		p.fail(d.rejoin(&c, p.spans))
	}
	if p.checkErr == nil {
		p.cycles = append(p.cycles, c)
	}
	return nil
}

const (
	// settle is how long a cycle's load runs before the crash, and at
	// least how long after recovery.
	settle = 100 * time.Millisecond
	// cycleSlot is the window time per crash-failover cycle: room for
	// settle, a crash and recovery of up to about 0.2s, and settle again.
	cycleSlot = 800 * time.Millisecond
)

// warmClosedLoop waits until the packet driver has completed warmOps
// operations and heap use has levelled off (two 250ms samples in a row
// within 5% of the peak so far), at most 60s.
func warmClosedLoop(ops *opLog, l load, warmOps int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for ops.completed.Load() < warmOps {
		if l.failures() > 0 || time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d operations completed", ops.completed.Load(), warmOps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var peak uint64
	for steady := 0; steady < 2 && time.Now().Before(deadline); {
		time.Sleep(250 * time.Millisecond)
		h := readRuntime().heapInuse
		if float64(h) <= 1.05*float64(peak) {
			steady++
		} else {
			steady = 0
		}
		peak = max(peak, h)
	}
	return nil
}

// checkOutputs verifies the program's outputs once the load has stopped.
//   - packet driver: every live sink replica executed exactly the voted
//     operations sent — none lost, none run twice.
//   - open loop: each group's counting-register replies are distinct and
//     gap-free (a reply that does not decode counts as failed), and every
//     live replica's count equals the group's replies.
func checkOutputs(d *deployment, l load, open *openLoop) error {
	if open == nil {
		want := int64(l.sent())
		g := d.groups[0]
		var n int64
		err := poll("drain", func() bool {
			var ok bool
			n, ok = g.agreed()
			return ok && n >= want
		})
		if err != nil || n != want {
			return fmt.Errorf("sink replicas executed %v after %d voted operations", g.counts(), want)
		}
		return nil
	}
	n, err := open.checkReplies()
	if err != nil {
		return err
	}
	if err := d.awaitAgreement(10 * time.Second); err != nil {
		return err
	}
	if open.failures() > 0 {
		return nil // failed calls may have executed; counts cannot be matched
	}
	for i, g := range d.groups {
		if c, _ := g.agreed(); c != n[i] {
			return fmt.Errorf("%s: replicas executed %d operations, callers got %d replies", g.key, c, n[i])
		}
	}
	return nil
}
