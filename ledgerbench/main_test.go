package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkloadPrintsEveryMetric runs every workload of
// BENCHMARK.json on a tiny budget, untraced and traced, and checks that
// each declared metric is printed with its declared unit, that the
// human-readable table names every end-to-end metric, and that nothing
// failed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	declared := map[string]bool{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = true
	}
	for _, wl := range bf.Workloads {
		for _, name := range inWorkloadMetrics(wl.Name) {
			if !declared[name] {
				t.Errorf("%s: in-workload metric %s is not a per-layer metric of BENCHMARK.json", wl.Name, name)
			}
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: heldOutSeed, budget: time.Millisecond, trace: trace, countBatches: 1}
			var out strings.Builder
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			unit, batch, _ := unitsOf(wl.Name)
			for _, name := range []string{unit + "_per_s", batch + "_p50_ms", batch + "_p90_ms", "setup_s",
				"peak_rss_mb", "alloc_bytes_per_op", "iters_per_corrected", "due_frac", "failed_frac", "outcome checks: OK"} {
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: output lacks %q", wl.Name, trace, name)
				}
			}
			if !trace {
				continue
			}
			if !strings.Contains(out.String(), "scenario.residual_ns."+wl.Name) {
				t.Errorf("%s: traced output lacks the ledger residual", wl.Name)
			}
			var matched, compared int
			if i := strings.Index(out.String(), "outcome digest on "); i < 0 {
				t.Errorf("%s: traced output lacks the mirror comparison", wl.Name)
			} else if _, err := fmt.Sscanf(out.String()[i:], "outcome digest on %d of %d", &matched, &compared); err != nil ||
				compared < 1 || matched != compared {
				t.Errorf("%s: mirror matched %d of %d engine batches (%v)", wl.Name, matched, compared, err)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin()
	tr.begin()
	time.Sleep(2 * time.Millisecond)
	tr.end("child", 3)
	tr.end("parent", 0)
	child, parent := tr.self["child"], tr.self["parent"]
	if child.Calls != 1 || child.Items != 3 || child.SelfNs < int64(2*time.Millisecond) {
		t.Errorf("child = %+v", child)
	}
	if parent.SelfNs < 0 || parent.SelfNs >= child.SelfNs {
		t.Errorf("parent self %d should exclude the child's %d", parent.SelfNs, child.SelfNs)
	}
}
