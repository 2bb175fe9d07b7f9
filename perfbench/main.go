// Command perfbench is the repository benchmark: it runs one named
// workload of the PEI simulator for a fixed time and prints host-time
// metrics, end to end or (with -trace 1) layer by layer.
//
//	bash perfbench/run.sh --workload pagerank --seed 1 --seconds 30 --trace 0
//
// Each sample runs in a fresh child process, so set-up includes cold
// input generation and peak RSS belongs to that sample alone. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: pagerank, hashjoin or fig6-sweep")
		seed     = flag.Int64("seed", 0, "input seed (>= 0)")
		seconds  = flag.Int("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from traced samples instead of end-to-end metrics")
		child    = flag.String("sample", "", "internal: run one sample in this process (untraced|traced:<trace id>)")
	)
	flag.Parse()
	sp, ok := specs[*workload]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown workload %q (pagerank, hashjoin, fig6-sweep)", *workload))
	case *seed < 0:
		fail(fmt.Errorf("seed %d is negative", *seed))
	case *seconds < 1:
		fail(fmt.Errorf("seconds %d is below 1", *seconds))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("trace must be 0 or 1, not %d", *trace))
	}
	if *child != "" {
		if err := childMain(*workload, sp, *seed, *child); err != nil {
			fail(err)
		}
		return
	}
	if err := orchestrate(os.Stdout, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// childMain runs one sample and writes it to stdout as JSON.
func childMain(name string, sp spec, seed int64, mode string) error {
	var tr *tracer
	if id, ok := strings.CutPrefix(mode, "traced:"); ok {
		tr = newTracer(id)
	} else if mode != "untraced" {
		return fmt.Errorf("unknown sample mode %q", mode)
	}
	s, err := runSample(name, sp, seed, tr)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// runChild runs one sample in a fresh process and adds its peak RSS.
func runChild(name string, seed int64, mode string) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-sample", mode)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sample process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("sample process output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &s, nil
}

// minSamples is the fewest samples a run takes of each kind it runs, so
// that every reported median has at least three values behind it.
const minSamples = 3

// orchestrate runs samples until the measuring time is spent and prints
// the run's result. An untraced run reports the end-to-end metrics as
// medians over its samples. A traced run alternates untraced and traced
// samples: it reports the per-layer metrics of the traced ones, the
// tracing overhead against the untraced ones, and checks that both kinds
// simulated exactly the same thing.
func orchestrate(w io.Writer, name string, seed int64, budget time.Duration, traced bool) error {
	traceID := fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano())
	var plain, withTrace []*sample
	var took []float64
	start := time.Now()
	for i := 0; ; i++ {
		kind := "untraced"
		if traced && i%2 == 1 {
			kind = fmt.Sprintf("traced:%s/sample%d", traceID, i+1)
		}
		t0 := time.Now()
		s, err := runChild(name, seed, kind)
		if err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
		if s.Traced {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
		}
		fmt.Fprintf(w, "sample %d traced=%v setup_s=%.4f run_s=%.4f cpu_s=%.4f alloc_mb=%.1f peak_rss_mb=%.1f attempted=%d failed=%d sim_events=%d digest=%s\n",
			i+1, s.Traced, s.SetupS, s.RunS, s.CPUS, s.AllocMB, s.PeakRSSMB, s.Attempted, s.Failed, s.Events, s.Digest)
		for _, e := range s.Errors {
			fmt.Fprintf(w, "sample %d failure: %s\n", i+1, e)
		}
		enough := len(plain) >= minSamples && (!traced || len(withTrace) >= minSamples)
		// Stop when the next sample would end further past the budget
		// than stopping now falls short of it.
		remaining := budget - time.Since(start)
		if enough && remaining < time.Duration(median(took)/2*float64(time.Second)) {
			break
		}
	}
	all := append(append([]*sample(nil), plain...), withTrace...)
	stamp, _ := json.Marshal( // plain values: cannot fail
		map[string]any{"workload": name, "seed": seed, "input_seeds": all[0].Seeds, "params": all[0].Spec, "env": all[0].Env})
	fmt.Fprintf(w, "env %s\n", stamp)

	res := result{Correct: true}
	digests := make(map[string]int)
	for _, s := range all {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		digests[s.Digest]++
	}
	if len(digests) != 1 {
		res.Correct = false
		fmt.Fprintf(w, "digest mismatch: the samples of one seed simulated different things: %v\n", digests)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(w, "fail_ratio %g ratio (%d of %d simulations failed)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(w, "digest %s sim_events %d\n", all[0].Digest, all[0].Events)

	if traced {
		res.Metrics = layerMetrics(withTrace, plain)
		path, err := writeSpans(traceID, withTrace)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "spans %s\n", path)
	} else {
		res.Metrics = endToEnd(plain)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd reports each end-to-end metric as the median over samples.
func endToEnd(samples []*sample) map[string]metric {
	med := func(f func(*sample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return map[string]metric{
		"setup_s":     {med(func(s *sample) float64 { return s.SetupS }), "s"},
		"run_s":       {med(func(s *sample) float64 { return s.RunS }), "s"},
		"cpu_s":       {med(func(s *sample) float64 { return s.CPUS }), "s"},
		"alloc_mb":    {med(func(s *sample) float64 { return s.AllocMB }), "MiB"},
		"peak_rss_mb": {med(func(s *sample) float64 { return s.PeakRSSMB }), "MiB"},
	}
}

// layerUnits lists every per-layer metric with its unit. Metrics that a
// workload cannot observe read 0: the harness metrics on the single-run
// workloads, which bypass the harness, and the event, op-stream and
// per-call timings on fig6-sweep, whose machines the harness builds.
var layerUnits = map[string]string{
	"sim.events": "count", "sim.ns_per_event": "ns",
	"cpu.retired":     "count",
	"cache.l1_misses": "count", "cache.l2_misses": "count", "cache.l3_misses": "count",
	"cache.l3_hit_ratio": "ratio", "cache.coh_invalidations": "count", "cache.mshr_stalls": "count",
	"cache.access_lat_cyc": "cycles",
	"pim.peis":             "count", "pim.pei_host": "count", "pim.pei_mem": "count", "pim.mem_frac": "ratio",
	"pim.monitor_hit_ratio": "ratio", "pim.dir_blocked": "count", "pim.back_invalidations": "count",
	"pim.pei_lat_cyc":       "cycles",
	"hmc.offchip_req_bytes": "bytes", "hmc.offchip_res_bytes": "bytes", "hmc.tsv_bytes": "bytes",
	"dram.accesses": "count", "dram.row_hit_ratio": "ratio", "dram.refreshes": "count",
	"workloads.new_s": "s", "workloads.streams_s": "s", "workloads.verify_s": "s",
	"workloads.next_calls": "count", "workloads.next_ns": "ns",
	"machine.new_s": "s", "machine.drive_s": "s", "machine.finish_s": "s",
	"machine.cycles": "cycles", "machine.ipc": "ops/cycle",
	"harness.cells": "count", "harness.cell_p50_s": "s", "harness.cell_p90_s": "s", "harness.parallel_eff": "ratio",
	"runtime.gc_cycles": "count", "runtime.gc_cpu_share": "ratio",
	"bench.trace_overhead": "ratio",
}

// layerMetrics reports the per-layer metrics of a traced run: each as the
// median over the traced samples, the CPU shares from their profiles
// folded together, and the tracing overhead as traced over untraced
// median run_s.
func layerMetrics(traced, plain []*sample) map[string]metric {
	out := make(map[string]metric)
	for name, unit := range layerUnits {
		xs := make([]float64, len(traced))
		for i, s := range traced {
			xs[i] = s.Layer[name]
		}
		out[name] = metric{median(xs), unit}
	}
	runS := func(ss []*sample) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.RunS
		}
		return median(xs)
	}
	out["bench.trace_overhead"] = metric{ratio(runS(traced), runS(plain)), "ratio"}
	counts := make(map[string]int64)
	var total int64
	for _, s := range traced {
		for l, n := range s.Profile {
			counts[l] += n
			total += n
		}
	}
	for _, l := range layers {
		out[l+".cpu_share"] = metric{ratio(float64(counts[l]), float64(total)), "ratio"}
	}
	out["bench.profile_samples"] = metric{float64(total), "count"}
	return out
}

// writeSpans writes the traced samples' spans as one JSON file under
// .bench_build/traces in the working directory.
func writeSpans(traceID string, traced []*sample) (string, error) {
	var spans []span
	for _, s := range traced {
		spans = append(spans, s.Spans...)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, traceID+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
