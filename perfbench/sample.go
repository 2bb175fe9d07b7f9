package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/harness"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
	"pimsim/pei"
)

// spec fixes one benchmark workload's inputs. Seeds come from the
// command line; everything else is here.
type spec struct {
	// Sweep selects the Figure 6 sweep through the harness; otherwise
	// the sample runs Workload once per seed on one machine.
	Sweep    bool   `json:"sweep"`
	Workload string `json:"workload,omitempty"`
	Size     string `json:"size,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Scale    int    `json:"scale"`
	Budget   int64  `json:"op_budget,omitempty"`
}

// specs are the benchmark workloads. The inputs are sized so one sample
// takes a few seconds on two hardware threads, which lets a run take a
// median over several samples; BENCHMARK.json records why each was
// chosen.
var specs = map[string]spec{
	// Host side: about 99% of PEIs execute on host PCUs, so caches,
	// coherence, the locality monitor and the PIM directory dominate.
	"pagerank": {Workload: "pr", Size: "medium", Mode: "locality", Scale: 128},
	// Memory side: more than 99% of PEIs are offloaded to vault PCUs over
	// the HMC links.
	"hashjoin": {Workload: "hj", Size: "large", Mode: "locality", Scale: 256},
	// The only workload that runs the harness cell pool and the Host-Only
	// and Ideal-Host modes: Figure 6 for all three sizes, 120 cells.
	"fig6-sweep": {Sweep: true, Scale: 256, Budget: 20000},
}

// graphWorkloads read their inputs from the process-wide graph cache,
// which the sweep's set-up fills.
var graphWorkloads = []string{"atf", "bfs", "pr", "sp", "wcc"}

var sizes = []workloads.Size{workloads.Small, workloads.Medium, workloads.Large}

// envStamp identifies where and on what a sample ran.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() envStamp {
	e := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Commit != "unknown" {
			e.Commit += "+dirty"
		}
	}
	return e
}

// sample is what one child process reports about one sample.
type sample struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seeds     []int64  `json:"input_seeds,omitempty"`
	Spec      spec     `json:"params"`
	Env       envStamp `json:"env"`
	Traced    bool     `json:"traced"`
	SetupS    float64  `json:"setup_s"`
	RunS      float64  `json:"run_s"`
	CPUS      float64  `json:"cpu_s"`
	AllocMB   float64  `json:"alloc_mb"`
	PeakRSSMB float64  `json:"peak_rss_mb"` // filled in by the parent
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	Events    uint64   `json:"sim_events"`
	// Layer holds the per-layer metrics of a traced sample except the
	// CPU shares, which the parent derives from Profile.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Profile map[string]int64   `json:"profile,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

func (s *sample) fail(err error) {
	s.Failed++
	s.Errors = append(s.Errors, err.Error())
}

// window measures host resources over the simulation window: wall time,
// process CPU time, heap bytes allocated and GC work.
type window struct {
	wall time.Time
	cpu  time.Duration
	rt   []metrics.Sample
}

var windowMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(windowMetrics))
	for i, n := range windowMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func openWindow() window {
	return window{rt: readRuntime(), cpu: processCPU(), wall: time.Now()}
}

// usage is what a window measured.
type usage struct {
	wallS, cpuS, allocB, gcCycles, gcCPUS, totCPUS float64
}

func (w window) close() usage {
	u := usage{wallS: time.Since(w.wall).Seconds(), cpuS: (processCPU() - w.cpu).Seconds()}
	after := readRuntime()
	delta := func(i int) float64 {
		a, b := after[i].Value, w.rt[i].Value
		if a.Kind() == metrics.KindUint64 {
			return float64(a.Uint64() - b.Uint64())
		}
		return a.Float64() - b.Float64()
	}
	u.allocB, u.gcCycles, u.gcCPUS, u.totCPUS = delta(0), delta(1), delta(2), delta(3)
	return u
}

func (u *usage) add(v usage) {
	u.wallS += v.wallS
	u.cpuS += v.cpuS
	u.allocB += v.allocB
	u.gcCycles += v.gcCycles
	u.gcCPUS += v.gcCPUS
	u.totCPUS += v.totCPUS
}

// profiler CPU-profiles the simulation windows of a traced sample and
// folds each window's samples by layer. A nil profiler does nothing.
type profiler struct {
	buf    bytes.Buffer
	counts map[string]int64
	err    error
}

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil || p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	counts, err := foldProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	for l, n := range counts {
		p.counts[l] += n
	}
}

// runSample runs one sample of the named workload. A nil tracer runs it
// untraced. Simulation failures are counted in the sample; the error
// return is for a workload name or spec the benchmark does not know.
func runSample(name string, sp spec, seed int64, tr *tracer) (*sample, error) {
	s := &sample{Workload: name, Seed: seed, Spec: sp, Env: currentEnv(), Traced: tr != nil}
	var prof *profiler
	if tr != nil {
		prof = &profiler{counts: make(map[string]int64)}
		s.Layer = make(map[string]float64)
	}
	root := tr.begin("sample "+name, 0)
	var err error
	if sp.Sweep {
		err = runSweep(s, sp, tr, root, prof)
	} else {
		err = runSingles(s, sp, seed, tr, root, prof)
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		if prof.err != nil {
			return nil, fmt.Errorf("cpu profile: %w", prof.err)
		}
		s.Profile = prof.counts
	}
	if tr != nil {
		s.Spans = tr.spans
	}
	return s, nil
}

// inputSeeds maps the benchmark seed to the workload seeds one sample
// simulates. hashjoin's probe keys depend on the parity of its seed
// (odd seeds probe only even build-side rows and run about 40% more
// events), so each sample covers one seed of each parity; otherwise the
// run-to-run spread across benchmark seeds would be that bimodality.
func inputSeeds(seed int64) []int64 { return []int64{2 * seed, 2*seed + 1} }

// runSingles simulates sp.Workload to completion once per input seed,
// each time on a fresh machine, and verifies the functional result.
func runSingles(s *sample, sp spec, seed int64, tr *tracer, root int, prof *profiler) error {
	size, err := workloads.ParseSize(sp.Size)
	if err != nil {
		return err
	}
	mode, err := pei.ParseMode(sp.Mode)
	if err != nil {
		return err
	}
	s.Seeds = inputSeeds(seed)
	d := newDigest()
	var win usage
	var counters []*countingStream
	var results []machine.Result
	for _, in := range s.Seeds {
		s.Attempted++
		cfg := config.Scaled()
		p := workloads.Params{Threads: cfg.Cores, Size: size, Scale: sp.Scale, Seed: in}
		// Collect the previous simulation's heap before set-up and
		// set-up's garbage before the run, as testing.B does before a
		// benchmark: otherwise whether a GC cycle happens to land in
		// between decides the peak RSS and the GC work in the window.
		runtime.GC()
		parent := tr.begin(fmt.Sprintf("simulate %s seed %d", sp.Workload, in), root)
		var (
			w       workloads.Workload
			m       *machine.Machine
			streams []cpu.Stream
			newErr  error
		)
		t0 := time.Now()
		newS := tr.call("workloads.New", parent, func() { w, newErr = workloads.New(sp.Workload, p) })
		if newErr != nil {
			return newErr
		}
		machS := tr.call("machine.New", parent, func() { m, newErr = machine.New(cfg, mode) })
		if newErr != nil {
			return newErr
		}
		streamsS := tr.call("Workload.Streams", parent, func() { streams = w.Streams(m) })
		s.SetupS += time.Since(t0).Seconds()
		if tr != nil {
			var cs []*countingStream
			streams, cs = wrapStreams(streams)
			counters = append(counters, cs...)
		}

		runtime.GC()
		prof.start()
		wo := openWindow()
		var runErr error
		tr.call("Machine.Start", parent, func() { runErr = m.Start(streams) })
		var driveS, finishS float64
		var res machine.Result
		if runErr == nil {
			driveS = tr.call("Machine.Drive", parent, func() { runErr = m.Drive(context.Background()) })
		}
		if runErr == nil {
			finishS = tr.call("Machine.Finish", parent, func() {
				if runErr = m.CheckDone(streams); runErr == nil {
					res = m.Finish()
				}
			})
		}
		win.add(wo.close())
		prof.stop()

		var verifyS float64
		if runErr == nil {
			verifyS = tr.call("Workload.Verify", parent, func() { runErr = w.Verify(m) })
		}
		tr.end(parent)
		if runErr != nil {
			s.fail(fmt.Errorf("%s seed %d: %w", sp.Workload, in, runErr))
			continue
		}
		s.Events += m.K.Executed
		results = append(results, res)
		digestResult(d, in, res, m.K.Executed)
		if s.Layer != nil {
			for k, v := range map[string]float64{
				"workloads.new_s": newS, "workloads.streams_s": streamsS, "workloads.verify_s": verifyS,
				"machine.new_s": machS, "machine.drive_s": driveS, "machine.finish_s": finishS,
			} {
				s.Layer[k] += v
			}
		}
	}
	s.RunS, s.CPUS, s.AllocMB = win.wallS, win.cpuS, win.allocB/(1<<20)
	s.Digest = d.sum()
	if s.Layer != nil {
		modelLayers(s.Layer, results)
		runtimeLayers(s.Layer, win)
		s.Layer["sim.events"] = float64(s.Events)
		s.Layer["sim.ns_per_event"] = ratio(s.Layer["machine.drive_s"]*1e9, float64(s.Events))
		var calls, timed, timedNs int64
		for _, c := range counters {
			calls += c.calls
			timed += c.timed
			timedNs += c.timedNs
		}
		s.Layer["workloads.next_calls"] = float64(calls)
		s.Layer["workloads.next_ns"] = ratio(float64(timedNs), float64(timed))
	}
	return nil
}

// digestResult adds one run's simulated outputs to d.
func digestResult(d *digest, seed int64, r machine.Result, events uint64) {
	d.field("seed", seed)
	d.field("mode", r.Mode)
	d.field("cycles", r.Cycles)
	d.field("retired", r.Retired)
	d.field("per_core_retired", r.PerCoreRetired)
	d.field("peis", fmt.Sprint(r.PEIs, r.PEIHost, r.PEIMem))
	d.field("offchip_bytes", r.OffchipBytes)
	d.field("dram_accesses", r.DRAMAccesses)
	d.field("energy", fmt.Sprintf("%+v", r.Energy))
	d.field("events", events)
	d.stats("stat.", r.Stats)
}

// modelLayers sets the simulated-hardware counters of the cache, pim,
// hmc, dram, cpu and machine layers, summed over results.
func modelLayers(l map[string]float64, results []machine.Result) {
	sum := make(map[string]float64)
	var cycles, retired float64
	for _, r := range results {
		for k, v := range r.Stats {
			sum[k] += float64(v)
		}
		cycles += float64(r.Cycles)
		retired += float64(r.Retired)
	}
	// The latency means are per run; weight them by the accesses and
	// PEIs that produced them.
	var accLat, peiLat float64
	for _, r := range results {
		accLat += float64(r.Stats["lat.access.mean_x100"]) / 100 * float64(r.Stats["l1.hits"]+r.Stats["l1.misses"])
		peiLat += float64(r.Stats["lat.pei.mean_x100"]) / 100 * float64(r.Stats["pei.total"])
	}
	l["cpu.retired"] = retired
	l["machine.cycles"] = cycles
	l["machine.ipc"] = ratio(retired, cycles)
	l["cache.l1_misses"] = sum["l1.misses"]
	l["cache.l2_misses"] = sum["l2.misses"]
	l["cache.l3_misses"] = sum["l3.misses"]
	l["cache.l3_hit_ratio"] = ratio(sum["l3.hits"], sum["l3.hits"]+sum["l3.misses"])
	l["cache.coh_invalidations"] = sum["coh.invalidations"]
	l["cache.mshr_stalls"] = sum["l2.mshr_stalls"] + sum["l3.mshr_stalls"]
	l["cache.access_lat_cyc"] = ratio(accLat, sum["l1.hits"]+sum["l1.misses"])
	l["pim.peis"] = sum["pei.total"]
	l["pim.pei_host"] = sum["pei.host"]
	l["pim.pei_mem"] = sum["pei.mem"]
	l["pim.mem_frac"] = ratio(sum["pei.mem"], sum["pei.host"]+sum["pei.mem"])
	l["pim.monitor_hit_ratio"] = ratio(sum["pmu.monitor_hit"], sum["pmu.monitor_hit"]+sum["pmu.monitor_miss"])
	l["pim.dir_blocked"] = sum["pmu.dir_blocked"]
	l["pim.back_invalidations"] = sum["pmu.back_invalidations"]
	l["pim.pei_lat_cyc"] = ratio(peiLat, sum["pei.total"])
	l["hmc.offchip_req_bytes"] = sum["offchip.req.bytes"]
	l["hmc.offchip_res_bytes"] = sum["offchip.res.bytes"]
	l["hmc.tsv_bytes"] = sum["tsv.bytes"]
	l["dram.accesses"] = sum["dram.reads"] + sum["dram.writes"]
	l["dram.row_hit_ratio"] = ratio(sum["dram.row_hit"], sum["dram.row_hit"]+sum["dram.row_miss"]+sum["dram.row_conflict"])
	l["dram.refreshes"] = sum["dram.refreshes"]
}

// runtimeLayers sets the Go runtime's GC counters over the window.
func runtimeLayers(l map[string]float64, u usage) {
	l["runtime.gc_cycles"] = u.gcCycles
	l["runtime.gc_cpu_share"] = ratio(u.gcCPUS, u.totCPUS)
}

// runSweep reproduces Figure 6 for every size through the harness, as
// peibench -exp fig6 does, after building every graph input the sweep
// reads so that set-up and simulation are timed apart.
func runSweep(s *sample, sp spec, tr *tracer, root int, prof *profiler) error {
	cfg := config.Scaled()
	t0 := time.Now()
	setup := tr.begin("graph inputs", root)
	for _, size := range sizes {
		for _, name := range graphWorkloads {
			p := workloads.Params{Threads: cfg.Cores, Size: size, Scale: sp.Scale, OpBudget: sp.Budget}
			var (
				w      workloads.Workload
				m      *machine.Machine
				newErr error
			)
			tr.call("workloads.New", setup, func() { w, newErr = workloads.New(name, p) })
			if newErr != nil {
				return newErr
			}
			tr.call("machine.New", setup, func() { m, newErr = machine.New(cfg, pim.LocalityAware) })
			if newErr != nil {
				return newErr
			}
			tr.call("Workload.Streams", setup, func() { w.Streams(m) })
		}
	}
	tr.end(setup)

	opts := harness.Options{
		Cfg:         cfg,
		Scale:       sp.Scale,
		OpBudget:    sp.Budget,
		Workloads:   workloads.Names,
		Parallelism: runtime.NumCPU(),
	}
	cells := newCellClock(tr)
	if tr != nil {
		opts.Progress = cells.progress
	}
	r := harness.NewRunner(opts)
	s.SetupS = time.Since(t0).Seconds()

	runtime.GC()
	prof.start()
	wo := openWindow()
	var tables strings.Builder
	failedSizes := make(map[workloads.Size]bool)
	for _, size := range sizes {
		cells.parent = tr.begin("Runner.Fig6 "+size.String(), root)
		t, err := r.Fig6(context.Background(), size)
		tr.end(cells.parent)
		if err != nil {
			failedSizes[size] = true
			s.Errors = append(s.Errors, err.Error())
			continue
		}
		t.Render(&tables)
	}
	win := wo.close()
	prof.stop()

	// Every cell is in the runner's cache now, so RunCell returns its
	// result without simulating again.
	d := newDigest()
	d.field("tables", tables.String())
	var results []machine.Result
	for _, size := range sizes {
		for _, name := range opts.Workloads {
			for _, mode := range []pim.Mode{pim.IdealHost, pim.HostOnly, pim.PIMOnly, pim.LocalityAware} {
				s.Attempted++
				if failedSizes[size] {
					s.Failed++
					continue
				}
				res, err := r.RunCell(context.Background(), harness.Cell{Workload: name, Size: size, Mode: mode})
				if err == nil && res.Cycles == 0 {
					err = fmt.Errorf("%s/%s/%s: 0 cycles", name, size, mode)
				}
				if err != nil {
					s.fail(err)
					continue
				}
				results = append(results, res)
				d.field(fmt.Sprintf("cell %s/%s/%s cycles", name, size, mode), res.Cycles)
			}
		}
	}
	if n := r.Simulations(); len(failedSizes) == 0 && n != int64(s.Attempted) {
		s.fail(fmt.Errorf("harness ran %d simulations for %d cells", n, s.Attempted))
	}
	s.RunS, s.CPUS, s.AllocMB = win.wallS, win.cpuS, win.allocB/(1<<20)
	s.Digest = d.sum()
	if s.Layer != nil {
		modelLayers(s.Layer, results)
		runtimeLayers(s.Layer, win)
		cells.layers(s.Layer, win.wallS, opts.Parallelism)
	}
	return nil
}

// cellClock turns the harness's Progress start/done events into per-cell
// host times and child spans of the running Fig6 call.
type cellClock struct {
	tr     *tracer
	parent int // span of the Fig6 call in progress

	mu    sync.Mutex // Progress is called from every harness worker
	open  map[string]openCell
	times []float64
}

type openCell struct {
	start time.Time
	span  int
}

func newCellClock(tr *tracer) *cellClock {
	return &cellClock{tr: tr, open: make(map[string]openCell)}
}

func (c *cellClock) progress(p harness.Progress) {
	now := time.Now()
	if !p.Done {
		id := c.tr.begin("cell "+p.Cell, c.parent)
		c.mu.Lock()
		c.open[p.Cell] = openCell{start: now, span: id}
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	o := c.open[p.Cell]
	delete(c.open, p.Cell)
	c.times = append(c.times, now.Sub(o.start).Seconds())
	c.mu.Unlock()
	c.tr.end(o.span)
}

// layers sets the harness metrics: cell count, per-cell host time at the
// median and the tail, and parallel efficiency (summed cell time over
// makespan × workers).
func (c *cellClock) layers(l map[string]float64, makespan float64, workers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	for _, t := range c.times {
		sum += t
	}
	l["harness.cells"] = float64(len(c.times))
	l["harness.cell_p50_s"] = quantile(c.times, 0.5)
	l["harness.cell_p90_s"] = quantile(c.times, 0.9)
	l["harness.parallel_eff"] = ratio(sum, makespan*float64(workers))
}
