package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"immune/internal/obs"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of xs (sorted in place); the mean of the middle pair when even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailQuantile is the quantile a "p99" figure reports for n samples: 0.99
// when at least ten samples lie beyond it, else the highest of 0.95 and
// 0.9 that has ten beyond, so a tail figure is never one or two unlucky
// samples. Reports print the quantile used.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// histDelta is the window's share of a cumulative histogram.
func histDelta(a, b obs.HistogramValue) obs.HistogramValue {
	d := obs.HistogramValue{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

// histSum adds two histogram values.
func histSum(a, b obs.HistogramValue) obs.HistogramValue {
	a.Count += b.Count
	a.Sum += b.Sum
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	return a
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the runtime/metrics the benchmark reports.
type runtimeSample struct {
	gcCPU, totalCPU float64 // cpu-seconds
	allocBytes      uint64
	heapInuse       uint64
	heapLive        uint64 // marked live by the last GC
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), heapInuse: u(3) + u(4), heapLive: u(5)}
}

// sampler polls gauges that are only visible as levels and keeps their
// peaks.
type sampler struct {
	gauges   []func() int64
	peaks    []atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// startSampler polls every 20ms until Stop.
func startSampler(gauges ...func() int64) *sampler {
	s := &sampler{gauges: gauges, peaks: make([]atomic.Int64, len(gauges)), stop: make(chan struct{})}
	s.poll()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	for i, g := range s.gauges {
		if v := g(); v > s.peaks[i].Load() {
			s.peaks[i].Store(v)
		}
	}
}

// Stop ends polling and waits for the poller to exit. It may be called
// more than once.
func (s *sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.done.Wait()
		s.poll()
	})
}
