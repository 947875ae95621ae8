// Command perfbench is the Immune reproduction's benchmark. It deploys the
// six-processor Immune stack in this process through the immune facade
// (simulated LAN, zero injected delay, so latency is processor time),
// runs one named workload, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload fig7-sig --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// system's metrics off (Config.DisableMetrics). With --trace 1 the same
// workload runs twice: once untraced, then with metrics on, a CPU profile
// and the benchmark's own spans, and the metrics are the per-layer ones;
// spans and the profile are written under --out.
//
// Workloads (why each was chosen):
//
//   - fig7-sig: the paper's §8 packet driver at case 4 (signed tokens) —
//     the headline Figure 7 number; sec, ring and invocation voting do
//     most of the work, and its single long-lived driver group runs past
//     the voter's 8192-operation decided window. It is not in
//     BENCHMARK.json: past that window the program settles, run by run,
//     at anywhere from about 1100 to 2100 ops/s on a 2-core machine, with
//     the slow runs also spending 20-30% more CPU per operation, so no
//     run length gives a steady figure. It stays runnable by name to
//     investigate that.
//   - rpc-open: open-loop two-way calls at case 3 (digests) over 8 groups
//     from three unreplicated drivers — the response path, singleton
//     voting and IIOP reply parsing, with no signatures and far below the
//     voter window, so a crypto or voter change should not move it.
//   - crash-failover: case 4 with crash, recovery and rejoin cycles under
//     light two-way load — the only workload whose measured window
//     exercises the detector, membership, recovery and state transfer.
//
// Every workload also runs crash-failover cycles, each on a fresh
// deployment at the workload's survivability level under crash-failover's
// light load (inside the window for crash-failover, after it for the
// others), so each reports outage and recovery times and checks replica
// agreement after state transfer.
//
// The exclusion after a crash takes either about 55ms (the fast path) or
// about 155ms (the slow path): when a survivor receives another's
// membership proposal before its own detector has suspected the victim,
// it proposes the old membership until a 100ms formation timeout. Which
// happens is a race whose odds vary from run to run (1 to 12 slow cycles
// of 25 in ten runs of crash-failover), so any figure over all cycles —
// median, mean or tail — moves with the odds rather than with the code.
// The end-to-end crash figures (outage_ms, recover_ms, and for
// crash-failover the whole window) therefore cover the fast-path cycles;
// the slow path's share is the per-layer membership.slow_path_share.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"immune"
)

type workload struct {
	name string
	spec deploySpec
	// rate is the open-loop arrival rate (calls/s); zero selects the
	// closed-loop packet driver.
	rate float64
	// crashInWindow runs the failover cycles inside the measured window.
	crashInWindow bool
}

var workloads = []workload{
	{name: "fig7-sig", spec: deploySpec{level: immune.LevelSignatures, groups: 1, packetDriver: true}},
	// About a third of the two-way capacity of a 2-core machine: latency
	// is stable here and became unstable from about 1200 calls/s.
	{name: "rpc-open", spec: deploySpec{level: immune.LevelDigests, groups: 8}, rate: 500},
	{name: "crash-failover", spec: deploySpec{level: immune.LevelSignatures, groups: 1}, rate: failoverRate, crashInWindow: true},
}

// failoverRate is the light two-way load crash-failover cycles run under.
const failoverRate = 200

// failoverLoad is what a workload's crash-failover cycles run: one sink
// group at the workload's survivability level under light open-loop
// two-way load, as in crash-failover. How often the exclusion takes the
// slow path depends on the load (see the package comment), so a common
// load keeps outage_ms comparable between workloads and steady between
// runs.
func (w workload) failoverLoad() workload {
	return workload{name: w.name, spec: deploySpec{level: w.spec.level, groups: 1}, rate: failoverRate, crashInWindow: w.crashInWindow}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one run's settings. The smoke test shrinks them.
type options struct {
	seed     uint64
	seconds  time.Duration
	setups   int           // deployments whose set-up time is measured; the last one runs the load
	quiet    time.Duration // idle window after each set-up, before load
	warm     time.Duration // open-loop warm-up; fig7-sig warms up by condition
	warmOps  int64         // fig7-sig: operations to complete before measuring
	cycles   int           // crash-failover cycles after the window (crash-failover: one per cycleSlot of the window)
	out      string        // directory for spans and profiles (traced runs)
	miscount bool          // servants miscount on purpose (smoke test)
}

func defaultOptions() options {
	return options{
		seconds: 10 * time.Second,
		setups:  9,
		quiet:   300 * time.Millisecond,
		warm:    time.Second,
		// The voter forgets decided operations only 8192 behind the
		// latest, and from then on every decision of a long-lived client
		// group pays for the forgetting. Measuring before that point
		// would mix the early rate (~4300 ops/s on a 2-core machine) with
		// the steady one (~1100-1500 ops/s), so fig7-sig warms up past it.
		warmOps: 8192 + 2048,
		cycles:  16,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig7-sig, rpc-open or crash-failover")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/trace", "directory for spans and profiles of traced runs")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := defaultOptions()
	o.seed = *seed
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.out = *out

	printEnv(w, o, *trace)
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(w, o, os.Stdout)
	} else {
		res, err = runTraced(w, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is the --trace 0 run.
func runEndToEnd(w workload, o options, report io.Writer) (result, error) {
	p, err := measure(w, o, false)
	if err != nil {
		return result{}, err
	}
	res := newResult(p, report)
	// Fast-path cycles only; see the package comment.
	var outage, recoverMs []float64
	for _, c := range p.fastCycles() {
		outage = append(outage, ms(c.outage))
		recoverMs = append(recoverMs, ms(c.full.Sub(c.crash)))
	}
	p99, p99How := p.win.latencyP99()
	res.add("throughput_ops", median(p.win.rates), "ops/s")
	res.add("latency_p50_ms", quantile(p.win.latency, 0.5), "ms")
	res.add("latency_p99_ms", p99, "ms")
	res.add("success_ratio", 1-float64(res.Failed)/float64(res.Attempted), "fraction")
	res.add("cpu_us_per_op", median(p.win.cpuOps), "us")
	res.add("idle_cores", p.idleCores, "cores")
	res.add("setup_s", median(p.setup), "s")
	res.add("heap_live_mb", median(p.win.heapLive), "MB")
	res.add("outage_ms", median(outage), "ms")
	res.add("recover_ms", median(recoverMs), "ms")
	fmt.Fprintf(report, "# latency: %d samples, p99 is the %s; failed_ratio %g\n",
		len(p.win.latency), p99How, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(report, "# %d cycles, %d on the slow path; fast-path outage %v ms, recover %v ms\n",
		len(p.cycles), len(p.cycles)-len(outage), rounded(outage), rounded(recoverMs))
	return res.finish(report), nil
}

// runTraced is the --trace 1 run: an untraced pass without failover
// cycles gives the base of the tracing overhead, then the traced pass
// gives the per-layer metrics.
func runTraced(w workload, o options, report io.Writer) (result, error) {
	base := o
	base.setups, base.quiet = 1, 0
	if !w.crashInWindow {
		base.cycles = 0
	}
	bp, err := measure(w, base, false)
	if err != nil {
		return result{}, err
	}
	p, err := measure(w, o, true)
	if err != nil {
		return result{}, err
	}
	p.fail(bp.checkErr)
	res := newResult(p, report)
	win, fo := p.win, p.fo
	ops := float64(max(1, win.completed))
	perOp := func(name string) float64 { return float64(win.counters[name]) / ops }
	perKop := func(name string) float64 { return 1000 * perOp(name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	spans, orbSelf := p.spans.durations()

	var profTotal float64
	for _, v := range win.profNS {
		profTotal += v
	}
	for _, m := range modules {
		res.add(m+".cpu_share", ratio(win.profNS[m], profTotal), "fraction")
	}
	res.add("voting.inv.votes_per_decision", ratio(float64(win.counters["voting.inv.votes_cast"]), float64(win.counters["voting.inv.decided"])), "votes")
	res.add("voting.inv.majority_p50_us", win.hist("voting.inv.majority_latency", 0.5), "us")
	res.add("voting.resp.majority_p50_us", win.hist("voting.resp.majority_latency", 0.5), "us")
	res.add("voting.inv.duplicates_per_kop", perKop("voting.inv.duplicates"), "count")
	res.add("sec.tokens_signed_per_kop", perKop("ring.tokens_signed"), "count")
	res.add("sec.tokens_verified_per_kop", perKop("ring.tokens_verified"), "count")
	hits := float64(win.counters["ring.verify_cache_hits"])
	res.add("sec.verify_cache_hit_ratio", ratio(hits, hits+float64(win.counters["ring.tokens_verified"])), "fraction")
	res.add("ring.delivered_per_op", perOp("ring.delivered"), "count")
	res.add("ring.rotation_p50_us", win.hist("ring.rotation", 0.5), "us")
	res.add("ring.rotation_p99_us", win.hist("ring.rotation", 0.99), "us")
	res.add("ring.retransmissions_per_kop", perKop("ring.retransmissions"), "count")
	res.add("ring.token_resends", float64(win.counters["ring.token_resends"]), "count")
	res.add("ring.send_queue_peak", float64(win.sendQueuePeak), "count")
	res.add("trace.submit_to_ordered_p50_us", win.hist("trace.submit_to_ordered", 0.5), "us")
	res.add("trace.submit_to_ordered_p99_us", win.hist("trace.submit_to_ordered", 0.99), "us")
	res.add("smp.installs", float64(fo.counters["smp.installs"]), "count")
	res.add("smp.suspicions", float64(fo.counters["smp.suspicions"]), "count")
	res.add("rm.retries_per_kop", perKop("rm.retries"), "count")
	res.add("rm.responses_resent", float64(win.counters["rm.responses_resent"]), "count")
	res.add("rm.duplicates_per_kop", perKop("rm.duplicates_discarded"), "count")
	res.add("rm.inflight_peak", float64(win.inflightPeak), "count")
	for _, st := range []string{"intercept_to_submit", "ordered_to_voted", "voted_to_executed", "executed_to_resp_voted", "resp_voted_to_replied"} {
		res.add("trace."+st+"_p50_us", win.hist("trace."+st, 0.5), "us")
	}
	res.add("orb.self_p50_us", quantile(orbSelf, 0.5), "us")
	res.add("interceptor.span_p50_us", quantile(spans[spanInterceptor], 0.5), "us")
	res.add("exec.p50_us", quantile(spans[spanExec], 0.5), "us")
	res.add("net.frames_per_op", perOp("net.sent"), "count")
	res.add("net.bytes_per_op", perOp("net.bytes_sent"), "bytes")
	var exclude, suspectToInstall, rehost []float64
	for _, c := range p.cycles {
		exclude = append(exclude, ms(c.exclude.Sub(c.crash)))
		suspectToInstall = append(suspectToInstall, ms(c.exclude.Sub(c.suspect)))
		rehost = append(rehost, ms(c.full.Sub(c.exclude)))
	}
	res.add("membership.exclude_ms", median(exclude), "ms")
	slow := 0
	for _, c := range p.cycles {
		if c.slowPath() {
			slow++
		}
	}
	res.add("membership.slow_path_share", float64(slow)/float64(max(1, len(p.cycles))), "fraction")
	res.add("detector.suspect_to_install_ms", median(suspectToInstall), "ms")
	res.add("recovery.rehost_ms", median(rehost), "ms")
	res.add("recovery.placement_failures", float64(fo.counters["recovery.placement_failures"]), "count")
	res.add("rm.state_transfers", float64(fo.counters["rm.state_transfers"]), "count")
	res.add("runtime.gc_cpu_share", ratio(win.gcCPU, win.cpuAll), "fraction")
	res.add("alloc_bytes_per_op", float64(win.alloc)/ops, "bytes")
	res.add("obs.tracing_overhead", ratio(win.cpuPerOp(), bp.win.cpuPerOp()), "ratio")
	res.add("gen.lag_p99_ms", quantile(win.lag, tailQuantile(len(win.lag))), "ms")
	p.spans.mu.Lock()
	nspans := len(p.spans.spans)
	p.spans.mu.Unlock()
	fmt.Fprintf(report, "# cpu_us_per_op untraced %.2f, traced %.2f; %d spans; %d cycles\n",
		bp.win.cpuPerOp(), win.cpuPerOp(), nspans, len(p.cycles))
	if o.out != "" {
		if err := writeTrace(w, o, p, report); err != nil {
			return result{}, err
		}
	}
	return res.finish(report), nil
}

func newResult(p *pass, report io.Writer) *result {
	r := &result{Correct: p.checkErr == nil, Attempted: max(1, p.attempted), Failed: p.failed, Metrics: map[string]metric{}}
	if p.failErr != nil {
		fmt.Fprintln(report, "# first failed operation:", p.failErr)
	}
	if p.checkErr != nil {
		fmt.Fprintln(report, "# output check failed:", p.checkErr)
	}
	return r
}

func (r *result) add(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// finish prints every metric as "name value unit" before the JSON line.
func (r *result) finish(report io.Writer) result {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(report, "%-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	return *r
}

// writeTrace writes the traced pass's spans (JSON lines) and CPU profiles
// (one per measured segment) under o.out.
func writeTrace(w workload, o options, p *pass, report io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := p.spans.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	for i, prof := range p.win.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), prof, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(report, "# spans and CPU profiles written to %s.*\n", base)
	return nil
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*10)) / 10
	}
	return out
}

// printEnv records the environment and the workload seed: arrivals are a
// pure function of the seed, so a claim can be re-checked on another.
func printEnv(w workload, o options, trace int) {
	env := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "commit": commit(), "source_sha256": sourceDigest(),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("# env", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
