package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks a workload's inputs so a sample takes well under a second.
func tiny(name string) spec {
	sp := specs[name]
	switch {
	case sp.Sweep:
		sp.Scale, sp.Budget = 4096, 400
	case sp.Workload == "hj":
		sp.Scale = 1 << 16
	default:
		sp.Scale = 4096
	}
	return sp
}

// sweepUnobserved are the per-layer metrics fig6-sweep cannot see: the
// harness builds its machines and streams.
var sweepUnobserved = map[string]bool{
	"sim.events": true, "sim.ns_per_event": true,
	"workloads.new_s": true, "workloads.streams_s": true, "workloads.verify_s": true,
	"workloads.next_calls": true, "workloads.next_ns": true,
	"machine.new_s": true, "machine.drive_s": true, "machine.finish_s": true,
}

// TestSmoke runs an untraced and a traced sample of every workload at a
// tiny scale. Both must succeed, simulate exactly the same thing, and the
// traced one must report every per-layer metric that applies.
func TestSmoke(t *testing.T) {
	for name := range specs {
		t.Run(name, func(t *testing.T) {
			sp := tiny(name)
			plain, err := runSample(name, sp, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runSample(name, sp, 3, newTracer("smoke"))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*sample{plain, traced} {
				if s.Attempted == 0 || s.Failed != 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d: %v", s.Traced, s.Attempted, s.Failed, s.Errors)
				}
				if s.RunS <= 0 || s.SetupS <= 0 || s.CPUS <= 0 || s.AllocMB <= 0 {
					t.Errorf("traced=%v: non-positive host metric in %+v", s.Traced, s)
				}
			}
			if plain.Digest != traced.Digest || plain.Events != traced.Events {
				t.Errorf("tracing changed the simulation: digest %s/%s, events %d/%d", plain.Digest, traced.Digest, plain.Events, traced.Events)
			}
			if plain.Layer != nil || plain.Spans != nil || plain.Profile != nil {
				t.Error("untraced sample recorded per-layer data")
			}
			applies := func(metric string) bool {
				if sp.Sweep {
					return !sweepUnobserved[metric]
				}
				return !strings.HasPrefix(metric, "harness.")
			}
			for metric := range layerUnits {
				if metric == "bench.trace_overhead" || metric == "cache.mshr_stalls" || metric == "pim.back_invalidations" {
					continue // measured by the parent, or legitimately 0 at this scale
				}
				if _, ok := traced.Layer[metric]; applies(metric) && !ok {
					t.Errorf("traced sample lacks %s", metric)
				}
			}
			if len(traced.Spans) == 0 {
				t.Error("traced sample recorded no spans")
			}
			for _, sp := range traced.Spans {
				if sp.End < sp.Start || sp.Trace != "smoke" {
					t.Errorf("bad span %+v", sp)
				}
			}
		})
	}
}

// TestSmokeSinglesVerify checks that the single-run workloads count a
// sample as two verified simulations, one per input-seed parity.
func TestSmokeSinglesVerify(t *testing.T) {
	s, err := runSample("hashjoin", tiny("hashjoin"), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Attempted != 2 || s.Failed != 0 || len(s.Seeds) != 2 || s.Seeds[0] != 10 || s.Seeds[1] != 11 {
		t.Errorf("sample = attempted %d failed %d seeds %v", s.Attempted, s.Failed, s.Seeds)
	}
	other, err := runSample("hashjoin", tiny("hashjoin"), 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest == s.Digest {
		t.Error("different seeds gave the same digest")
	}
}

func TestLayerSharesAccountForAllSamples(t *testing.T) {
	traced := []*sample{
		{RunS: 2, Layer: map[string]float64{"sim.events": 10}, Profile: map[string]int64{"sim": 30, "cache": 10, "runtime": 5}},
		{RunS: 4, Layer: map[string]float64{"sim.events": 10}, Profile: map[string]int64{"sim": 20, "hmc": 7, "other": 3}},
		{RunS: 3, Layer: map[string]float64{"sim.events": 10}, Profile: map[string]int64{"bench": 25}},
	}
	plain := []*sample{{RunS: 1}, {RunS: 3}, {RunS: 2}}
	m := layerMetrics(traced, plain)
	var sum float64
	for _, l := range layers {
		sum += m[l+".cpu_share"].Value
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cpu shares sum to %g", sum)
	}
	if got := m["sim.cpu_share"].Value; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sim.cpu_share = %g, want 0.5", got)
	}
	if got := m["bench.profile_samples"].Value; got != 100 {
		t.Errorf("profile samples = %g, want 100", got)
	}
	if got := m["bench.trace_overhead"].Value; got != 1.5 {
		t.Errorf("trace overhead = %g, want 3/2", got)
	}
	if got := m["sim.events"].Value; got != 10 {
		t.Errorf("sim.events = %g", got)
	}
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			t.Errorf("layer metrics lack %s", name)
		}
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json at the repository
// root and the metrics the benchmark prints in step: same names, same
// units, in both modes.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	s := []*sample{{RunS: 1, Layer: map[string]float64{}, Profile: map[string]int64{"sim": 1}}}
	for _, c := range []struct {
		mode    string
		listed  []struct{ Name, Unit string }
		printed map[string]metric
	}{
		{"end_to_end", doc.EndToEnd, endToEnd(s)},
		{"per_layer", doc.PerLayer, layerMetrics(s, s)},
	} {
		if len(c.listed) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.mode, len(c.listed), len(c.printed))
		}
		for _, m := range c.listed {
			if got, ok := c.printed[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s in %s is printed as %+v (present %v)", c.mode, m.Name, m.Unit, got, ok)
			}
		}
	}
	if len(doc.Workload) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workload), len(specs))
	}
	for _, w := range doc.Workload {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}
