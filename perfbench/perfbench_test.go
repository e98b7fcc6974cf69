package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// deterministic lists the per-layer counts that depend only on the code and
// the seed, so two runs with one seed must agree on them exactly.
var deterministic = []string{
	"compiler.instructions",
	"compiler.kernels",
	"compiler.fused_ops",
	"compiler.storages_after",
	"vm.instructions_per_request",
	"kernels.calls_per_request",
	"kernels.mflop_per_request",
	"nimble-serve.bytes_per_request",
}

// serveBin builds nimble-serve once for the tests that need the HTTP path.
func serveBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nimble-serve")
	cmd := exec.Command("go", "build", "-o", bin, "nimble/cmd/nimble-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building nimble-serve: %v\n%s", err, out)
	}
	return bin
}

func runOnce(t *testing.T, cfg config, sp spec) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := execute(context.Background(), cfg, sp, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", sp.name, cfg.trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d of %d\n%s", sp.name, cfg.trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

// TestMetricsEmittedAndCountsRepeat runs every workload untraced once and
// traced twice with one seed: each run must emit its whole catalog (finish
// refuses a missing metric, this checks nothing extra slips in), and the
// deterministic counts must repeat exactly.
func TestMetricsEmittedAndCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	bin := serveBin(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{workload: sp.name, seed: 7, seconds: 1, serveBin: bin, traceDir: t.TempDir(), nproc: runtime.NumCPU()}
			plain := runOnce(t, cfg, sp)
			if len(plain.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want the %d end-to-end ones", len(plain.Metrics), len(endToEnd))
			}
			cfg.trace = true
			a, b := runOnce(t, cfg, sp), runOnce(t, cfg, sp)
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want the %d per-layer ones", len(a.Metrics), len(perLayer))
			}
			for _, name := range deterministic {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.traceDir, sp.name+"-seed7.json")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the runner
// reads, in step with the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := doc.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != (d.bound != 0) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
