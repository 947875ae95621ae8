package main

import (
	"errors"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"immune"
)

// load is a running request generator.
type load interface {
	// sent is the number of operations dispatched so far; operation ids
	// are 0..sent-1.
	sent() uint64
	// failures counts operations that failed or were shed.
	failures() int64
	// stop ends dispatching and waits until every dispatched operation
	// has returned. It reports the first hard error, if any.
	stop() error
}

// errOpLogFull stops a load that dispatched more operations than its log
// can time, which only a much faster program would do: enlarge the log.
var errOpLogFull = errors.New("perfbench: operation log full")

// closedLoop is the paper's §8 packet driver: every replica of the 3-way
// driver group sends the same 16-byte one-way "push", and the next voted
// operation waits while more than credit sent operations are still
// unexecuted at the sink, so backpressure is honoured rather than crashed
// into. A failed one-way send desynchronises the replicated driver (the
// operation numbers of its replicas drift apart), so the loop stops at
// the first error.
type closedLoop struct {
	d     *deployment
	ops   *opLog
	spans *spanLog
	rng   *rand.Rand

	next   atomic.Uint64
	failed atomic.Int64
	err    error // written by the dispatcher, read after done
	quit   chan struct{}
	done   chan struct{}
}

// credit is the packet driver's window of sent-but-unexecuted operations.
const credit = 64

func startClosedLoop(d *deployment, ops *opLog, spans *spanLog, seed uint64) *closedLoop {
	l := &closedLoop{d: d, ops: ops, spans: spans, rng: rand.New(rand.NewPCG(seed, 7)),
		quit: make(chan struct{}), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *closedLoop) run() {
	defer close(l.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for id := uint64(0); ; id++ {
		for int64(id)-l.ops.completed.Load() >= credit {
			select {
			case <-l.quit:
				return
			case <-l.ops.wake:
			case <-tick.C:
			}
		}
		select {
		case <-l.quit:
			return
		default:
		}
		if id >= l.ops.capacity() {
			l.err = errOpLogFull
			return
		}
		l.ops.setDue(id, time.Now())
		b := body(id, l.rng.Uint64())
		for _, dr := range l.d.drivers {
			start := time.Now()
			err := dr.objs[0].InvokeOneWay("push", b)
			l.spans.add(spanInvoke, dr.who, id, start, time.Now())
			if err != nil {
				l.failed.Add(1)
				l.err = err
				l.next.Store(id + 1)
				return
			}
		}
		l.next.Store(id + 1)
	}
}

func (l *closedLoop) sent() uint64    { return l.next.Load() }
func (l *closedLoop) failures() int64 { return l.failed.Load() }

func (l *closedLoop) stop() error {
	select {
	case <-l.quit:
	default:
		close(l.quit)
	}
	<-l.done
	return l.err
}

// openLoop dispatches two-way "next" calls on the schedule of an
// immune.PacketSource (Poisson arrivals, target group drawn from the
// seed), round-robin over the three unreplicated drivers, whether or not
// earlier calls have returned. Each call is timed from when it was due.
type openLoop struct {
	d     *deployment
	ops   *opLog
	spans *spanLog
	src   *immune.PacketSource
	sem   chan struct{} // bounds calls in flight; a full semaphore sheds

	next   atomic.Uint64
	failed atomic.Int64
	calls  sync.WaitGroup
	quit   chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	firstErr error
	replies  [][]int64   // per group
	lagLog   [][2]uint64 // (op id, dispatch lag in µs), dispatcher-owned until done
}

// maxInFlight bounds the open loop's outstanding calls. At the rates used
// it is never reached unless the system stalls for seconds; a shed call
// counts as failed.
const maxInFlight = 4096

func startOpenLoop(d *deployment, ops *opLog, spans *spanLog, seed uint64, rate float64) *openLoop {
	l := &openLoop{
		d: d, ops: ops, spans: spans,
		src: immune.NewPacketSource(immune.PacketSourceConfig{
			Seed: seed, Rate: rate, Process: immune.PoissonArrivals,
			PayloadSize: bodySize, Groups: len(d.groups),
		}),
		sem:     make(chan struct{}, maxInFlight),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		replies: make([][]int64, len(d.groups)),
	}
	go l.run()
	return l
}

func (l *openLoop) run() {
	defer close(l.done)
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for id := uint64(0); ; id++ {
		a := l.src.Next()
		due := start.Add(a.At)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-l.quit:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-l.quit:
				return
			default:
			}
		}
		if id >= l.ops.capacity() {
			l.mu.Lock()
			l.firstErr = errOpLogFull
			l.mu.Unlock()
			return
		}
		now := time.Now()
		l.lagLog = append(l.lagLog, [2]uint64{id, uint64(now.Sub(due) / time.Microsecond)})
		l.ops.setDue(id, due)
		l.next.Store(id + 1)
		select {
		case l.sem <- struct{}{}:
		default:
			l.failed.Add(1)
			continue
		}
		dr := l.d.drivers[id%uint64(len(l.d.drivers))]
		l.calls.Add(1)
		go l.call(dr, a.Group, id)
	}
}

func (l *openLoop) call(dr *driver, g int, id uint64) {
	defer l.calls.Done()
	start := time.Now()
	reply, err := dr.objs[g].Invoke("next", body(id, uint64(g)))
	end := time.Now()
	l.spans.add(spanInvoke, dr.who, id, start, end)
	<-l.sem
	var v int64
	if err == nil {
		v, err = immune.NewDecoder(reply).ReadLongLong()
	}
	if err != nil {
		l.failed.Add(1)
		l.mu.Lock()
		if l.firstErr == nil {
			l.firstErr = err
		}
		l.mu.Unlock()
		return
	}
	l.ops.complete(id, end)
	l.mu.Lock()
	l.replies[g] = append(l.replies[g], v)
	l.mu.Unlock()
}

func (l *openLoop) sent() uint64    { return l.next.Load() }
func (l *openLoop) failures() int64 { return l.failed.Load() }

func (l *openLoop) stop() error {
	select {
	case <-l.quit:
	default:
		close(l.quit)
	}
	<-l.done
	l.calls.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// lags returns the generator's dispatch lags, in ms, for ops [lo, hi).
// Call after stop.
func (l *openLoop) lags(lo, hi uint64) []float64 {
	var xs []float64
	for _, e := range l.lagLog {
		if e[0] >= lo && e[0] < hi {
			xs = append(xs, float64(e[1])/1e3)
		}
	}
	return xs
}

// checkReplies verifies that every group's replies are distinct and run
// 1..n with no gap, and returns n per group. Call after stop.
func (l *openLoop) checkReplies() ([]int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := make([]int64, len(l.replies))
	for g, rs := range l.replies {
		sorted := append([]int64(nil), rs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, v := range sorted {
			if v != int64(i+1) {
				return nil, errors.New(l.d.groups[g].key + ": replies are not distinct and gap-free")
			}
		}
		n[g] = int64(len(sorted))
	}
	return n, nil
}
