package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// shortOptions shrinks a run to a few seconds.
func shortOptions(t *testing.T) options {
	o := defaultOptions()
	o.seed = 3
	o.seconds = time.Second
	o.setups = 1
	o.quiet = 100 * time.Millisecond
	o.warm = 200 * time.Millisecond
	o.warmOps = 500
	o.cycles = 1
	o.out = t.TempDir()
	return o
}

// TestEveryMetricPrinted runs every workload briefly, untraced and traced,
// and checks that each metric BENCHMARK.json names is in the JSON result
// and printed on its own line with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	c := loadContract(t)
	for _, cw := range c.Workloads {
		if _, ok := findWorkload(cw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", cw.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var report bytes.Buffer
			var res result
			var err error
			want := c.EndToEnd
			if traced {
				res, err = runTraced(w, shortOptions(t), &report)
				want = c.PerLayer
			} else {
				res, err = runEndToEnd(w, shortOptions(t), &report)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, report.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
				if !hasLine(report.String(), m.Name, m.Unit) {
					t.Errorf("%s traced=%v: metric %s not printed with unit %s", w.name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

func hasLine(report, name, unit string) bool {
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestMiscountingServantRejected checks that the output checks catch a
// servant that counts wrong, on the one-way and the two-way path.
func TestMiscountingServantRejected(t *testing.T) {
	for _, name := range []string{"fig7-sig", "rpc-open"} {
		w, _ := findWorkload(name)
		o := shortOptions(t)
		o.miscount = true
		o.cycles = 0
		var report bytes.Buffer
		res, err := runEndToEnd(w, o, &report)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: a miscounting servant passed the output check\n%s", name, report.String())
		}
	}
}
