// JSON mode: machine-readable per-invocation cost for the four Figure 7
// cases, measured b.N-style via testing.Benchmark (the same packet-driver
// methodology as bench_test.go) rather than the interval sweep, so the
// output is directly comparable against the benchmark suite and against
// the pre-change baselines recorded below.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"immune"
)

// CaseResult is the per-invocation cost of one survivability case.
type CaseResult struct {
	Label             string  `json:"label"`
	NsPerOp           int64   `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	InvocationsPerSec float64 `json:"invocations_per_sec,omitempty"`
	Iterations        int     `json:"iterations,omitempty"`
}

// Report is the BENCH_2.json schema.
type Report struct {
	Schema       string                 `json:"schema"`
	GoVersion    string                 `json:"go_version"`
	GOOS         string                 `json:"goos"`
	GOARCH       string                 `json:"goarch"`
	PayloadBytes int                    `json:"payload_bytes"`
	WorkFactor   int                    `json:"crypto_work_factor"`
	Baseline     map[string]CaseResult  `json:"pre_change_baseline"`
	Cases        map[string]CaseResult  `json:"cases"`
	Metrics      map[string]CaseMetrics `json:"metrics,omitempty"`
}

// StageStat is one trace histogram (a stage transition or the end-to-end
// total) of a measured case.
type StageStat struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

// CaseMetrics is the -metrics section for one replicated case: every
// non-zero counter plus the invocation trace stage breakdown.
type CaseMetrics struct {
	Counters map[string]uint64 `json:"counters"`
	Stages   []StageStat       `json:"stages"`
}

// requiredCounters must be non-zero after any replicated measurement: they
// prove the instrumentation is still wired through every protocol layer.
// Signature counters are additionally required at LevelSignatures (case 4).
var requiredCounters = []string{
	"ring.delivered",
	"ring.originated",
	"voting.inv.votes_cast",
	"voting.inv.decided",
	"rm.invocations_sent",
	"rm.invocations_decided",
	"net.sent",
	"net.delivered",
}

var requiredSignatureCounters = []string{
	"ring.tokens_signed",
	"ring.tokens_verified",
}

// caseMetrics converts a snapshot into the report section and verifies the
// required counters.
func caseMetrics(key string, level immune.Level, snap immune.MetricsSnapshot) (CaseMetrics, error) {
	cm := CaseMetrics{Counters: map[string]uint64{}}
	for name, v := range snap.Counters {
		if v != 0 {
			cm.Counters[name] = v
		}
	}
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasPrefix(name, "trace.") {
			continue
		}
		h := snap.Histograms[name]
		cm.Stages = append(cm.Stages, StageStat{
			Name:   name,
			Count:  h.Count,
			MeanUs: float64(h.Mean()) / 1e3,
			P50Us:  float64(h.Quantile(0.50)) / 1e3,
			P99Us:  float64(h.Quantile(0.99)) / 1e3,
		})
	}
	required := requiredCounters
	if level == immune.LevelSignatures {
		required = append(append([]string{}, required...), requiredSignatureCounters...)
	}
	var zero []string
	for _, name := range required {
		if snap.Counters[name] == 0 {
			zero = append(zero, name)
		}
	}
	if len(zero) > 0 {
		return cm, fmt.Errorf("%s: required counters stayed zero (instrumentation unwired?): %s",
			key, strings.Join(zero, ", "))
	}
	return cm, nil
}

// preChangeBaseline holds the measurements taken at the parent commit of
// the hot-path performance pass (verify cache, pooled buffers, parallel
// crypto, busy-aware idle pacing), on the same machine and methodology,
// so the improvement is auditable from the artifact alone.
var preChangeBaseline = map[string]CaseResult{
	"case2": {
		Label:   "replication, no voting/digests (pre-change)",
		NsPerOp: 624518, AllocsPerOp: 240, BytesPerOp: 20916,
		InvocationsPerSec: 1601,
	},
	"case4": {
		Label:   "+ signed tokens (pre-change)",
		NsPerOp: 787639, AllocsPerOp: 397, BytesPerOp: 33844,
		InvocationsPerSec: 1270,
	},
}

// runJSON measures all four cases and writes the report to path. With
// metrics enabled, each replicated case also captures its system's metric
// snapshot; a required counter that stayed zero fails the run (the CI
// smoke uses this to prove the instrumentation stays wired).
func runJSON(path string, payloadSize, workFactor int, withMetrics bool) error {
	body := immune.PacketPayload(payloadSize)
	report := Report{
		Schema:       "immune-bench/2",
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		PayloadBytes: payloadSize,
		WorkFactor:   workFactor,
		Baseline:     preChangeBaseline,
		Cases:        map[string]CaseResult{},
	}
	if withMetrics {
		report.Metrics = map[string]CaseMetrics{}
	}

	fmt.Fprintf(os.Stderr, "# measuring case 1 (no replication, no Immune)\n")
	r1, err := benchmark(func(b *testing.B) error { return benchCase1(b, body) })
	if err != nil {
		return fmt.Errorf("case1: %w", err)
	}
	report.Cases["case1"] = toResult("no replication, no Immune", r1)

	levels := []struct {
		key   string
		label string
		level immune.Level
	}{
		{"case2", "replication, no voting/digests", immune.LevelNone},
		{"case3", "+ voting + digests", immune.LevelDigests},
		{"case4", "+ signed tokens", immune.LevelSignatures},
	}
	for _, c := range levels {
		fmt.Fprintf(os.Stderr, "# measuring %s (%s)\n", c.key, c.label)
		var snap immune.MetricsSnapshot
		snapDst := &snap
		if !withMetrics {
			snapDst = nil
		}
		r, err := benchmark(func(b *testing.B) error {
			return benchReplicated(b, c.level, workFactor, body, snapDst)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		report.Cases[c.key] = toResult(c.label, r)
		if withMetrics {
			cm, err := caseMetrics(c.key, c.level, snap)
			if err != nil {
				return err
			}
			report.Metrics[c.key] = cm
		}
	}

	out, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
	return nil
}

// benchmark runs fn under testing.Benchmark and returns its first error.
// testing.Benchmark may call fn several times with growing b.N; after an
// error the remaining calls return at once.
func benchmark(fn func(b *testing.B) error) (testing.BenchmarkResult, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		if err == nil {
			err = fn(b)
		}
	})
	return r, err
}

func toResult(label string, r testing.BenchmarkResult) CaseResult {
	res := CaseResult{
		Label:       label,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if s := r.T.Seconds(); s > 0 {
		res.InvocationsPerSec = float64(r.N) / s
	}
	return res
}

// benchCase1 is the unreplicated loopback baseline.
func benchCase1(b *testing.B, body []byte) error {
	sink := immune.NewPacketSink()
	base, err := immune.NewBaseline(sinkKey, sink)
	if err != nil {
		return err
	}
	defer base.Close()
	obj := base.Object(sinkKey)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.InvokeOneWay("push", body); err != nil {
			return err
		}
	}
	return nil
}

// benchReplicated measures one replicated case: b.N one-way invocations
// from each of three driver replicas, timed until the (replicated) sink
// has processed all b.N voted deliveries. A non-nil snap receives the
// system's final metric snapshot (testing.Benchmark may run the function
// several times; the last, largest run wins). Errors are returned, not
// raised with b.Fatal: outside go test that would crash the process.
func benchReplicated(b *testing.B, level immune.Level, workFactor int, body []byte, snap *immune.MetricsSnapshot) error {
	sys, err := immune.New(immune.Config{
		Processors:       6,
		Level:            level,
		Seed:             77,
		CryptoWorkFactor: workFactor,
	})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()

	var sink0 *immune.PacketSink
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		sink := immune.NewPacketSink()
		if pid == 1 {
			sink0 = sink
		}
		r, err := p.HostServer(sinkGroup, sinkKey, sink)
		if err != nil {
			return err
		}
		if err := r.WaitActive(20 * time.Second); err != nil {
			return err
		}
	}
	var drivers []*immune.Object
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(driverGroup)
		if err != nil {
			return err
		}
		c.Bind(sinkKey, sinkGroup)
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			return err
		}
		drivers = append(drivers, c.Object(sinkKey))
	}

	base := sink0.Received()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range drivers {
			if err := pushRetryingShed(d, body); err != nil {
				return err
			}
		}
	}
	want := base + uint64(b.N)
	deadline := time.Now().Add(5 * time.Minute)
	for sink0.Received() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("sink stalled at %d of %d", sink0.Received(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	if snap != nil {
		*snap = sys.Snapshot()
	}
	return nil
}

// pushRetryingShed sends one one-way invocation, backing off and retrying
// while admission control sheds it. ErrOverloaded is raised before the
// invocation enters total order, so the retry cannot duplicate it; an
// unpaced b.N loop overruns the bounded submit queue by design.
func pushRetryingShed(obj *immune.Object, body []byte) error {
	backoff := 50 * time.Microsecond
	for {
		err := obj.InvokeOneWay("push", body)
		if !errors.Is(err, immune.ErrOverloaded) {
			return err
		}
		time.Sleep(backoff)
		if backoff < 5*time.Millisecond {
			backoff *= 2
		}
	}
}
