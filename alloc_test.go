package pimsim_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/pei"
)

// The steady-state allocation pins: simulating a PEI end to end — from
// taking it out of its pool, through filling its operands, the PMU and
// the memory system, to its retirement and return to the pool — must
// stay (nearly) allocation-free once the pools and ring buckets are
// warm. These tests are the regression guard for that property — a
// stray closure or per-PEI buffer on the hot path shows up here long
// before it shows up in a profile.

// fillOperands sets p's input operand in place, as a generator would.
func fillOperands(p *pim.PEI, i int) {
	switch p.Op {
	case pim.OpMin64, pim.OpHashProbe:
		p.SetU64(uint64(i))
	case pim.OpFloatAdd:
		p.SetF64(1.5)
	case pim.OpHistBin:
		p.InputBuf(1)[0] = 24
	case pim.OpEuclideanDist:
		in := p.InputBuf(64)
		for d := 0; d < 16; d++ {
			binary.LittleEndian.PutUint32(in[d*4:], math.Float32bits(float32(i+d)))
		}
	case pim.OpDotProduct:
		in := p.InputBuf(32)
		for d := 0; d < 4; d++ {
			binary.LittleEndian.PutUint64(in[d*8:], math.Float64bits(float64(i-d)))
		}
	}
}

// measurePEIAllocs issues rounds of pooled PEIs of one kind against a
// fixed working set and reports the average heap allocations per PEI in
// steady state.
func measurePEIAllocs(t *testing.T, mode pim.Mode, op pim.OpKind) float64 {
	t.Helper()
	m := machine.MustNew(config.Scaled(), mode)
	const blocks = 64
	const batch = 32
	base := m.Store.Alloc(blocks*64, 64)
	var pool pim.PEIPool
	retired := 0
	onDone := func(*pim.PEI) { retired++ }
	round := func() {
		for i := 0; i < batch; i++ {
			p := pool.Get(op, base+uint64(i%blocks)*64)
			fillOperands(p, i)
			p.Done = onDone
			m.PMU.Issue(p)
		}
		m.K.Run()
	}
	// Warm every pool, ring bucket, and map bucket with the same access
	// pattern the measurement uses.
	for i := 0; i < 1024; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(200, round) / batch
	if want := (1024 + 201) * batch; retired != want {
		t.Fatalf("%d PEIs retired, want %d", retired, want)
	}
	return allocs
}

// testSteadyStateAllocs pins every Table 1 op, operands included, on
// one side of the machine.
func testSteadyStateAllocs(t *testing.T, mode pim.Mode) {
	for op := pim.OpKind(0); int(op) < len(pim.Ops); op++ {
		t.Run(op.String(), func(t *testing.T) {
			if allocs := measurePEIAllocs(t, mode, op); allocs > 0.05 {
				t.Fatalf("%s %s PEI allocates %.3f objects/op in steady state, want ~0", mode, op, allocs)
			}
		})
	}
}

// TestPEIHostSideSteadyStateAllocs pins the host-side PEI path (§4.5
// Figure 4): PMU issue, directory, host PCU, cache hierarchy.
func TestPEIHostSideSteadyStateAllocs(t *testing.T) {
	testSteadyStateAllocs(t, pim.HostOnly)
}

// TestPEIMemorySideSteadyStateAllocs pins the memory-side PEI path (§4.5
// Figure 5): coherence cleanup, packet codec, chain, vault PCU, DRAM.
func TestPEIMemorySideSteadyStateAllocs(t *testing.T) {
	testSteadyStateAllocs(t, pim.PIMOnly)
}

// TestHashJoinMarginalSteadyStateAllocs pins a whole workload — op
// generation, the cores, and the PEI path — by its marginal allocations:
// two runs that differ only in op budget share every setup and warm-up
// allocation, so the difference divided by the extra PEIs is the
// per-PEI cost of the steady state. A per-PEI PEI struct, operand
// slice, output slice or closure puts it near 4.
func TestHashJoinMarginalSteadyStateAllocs(t *testing.T) {
	cfg := pei.ScaledConfig()
	run := func(budget int64) (allocs float64, peis int64) {
		p := pei.WorkloadParams{Threads: cfg.Cores, Size: pei.Small, Scale: 1024, OpBudget: budget}
		allocs = testing.AllocsPerRun(1, func() {
			res, err := pei.RunWorkload(cfg, pei.LocalityAware, "hj", p, false)
			if err != nil {
				t.Fatal(err)
			}
			peis = res.PEIs
		})
		return allocs, peis
	}
	a1, p1 := run(5000)
	a2, p2 := run(10000)
	if p2 <= p1 {
		t.Fatalf("budget 10000 ran %d PEIs, budget 5000 ran %d", p2, p1)
	}
	perPEI := (a2 - a1) / float64(p2-p1)
	t.Logf("hj: %.0f allocs for %d PEIs, %.0f for %d: %.4f objects/PEI at the margin", a1, p1, a2, p2, perPEI)
	if perPEI > 0.05 {
		t.Fatalf("hj allocates %.3f objects per marginal PEI, want ~0", perPEI)
	}
}

// TestPooledTxnSequentialReuse drives two deliberately different PEIs
// through the memory-side path back to back. The second reuses the
// transaction objects the first released (PMU, chain, vault, DRAM
// pools); stale state — a leftover writer flag, output size, or wire
// payload — would corrupt the probe's result.
func TestPooledTxnSequentialReuse(t *testing.T) {
	m := machine.MustNew(config.Scaled(), pim.PIMOnly)
	base := m.Store.Alloc(128, 64)

	// First life: a writer PEI with no input or output operand.
	done1 := false
	m.PMU.Issue(&pim.PEI{Op: pim.OpInc64, Target: base, Done: func(*pim.PEI) { done1 = true }})
	m.K.Run()
	if !done1 {
		t.Fatal("first PEI never retired")
	}
	if got := m.Store.ReadU64(base); got != 1 {
		t.Fatalf("inc64 result %d, want 1", got)
	}

	// Second life: a reader PEI with both operands, at a different block.
	key := uint64(0x1234)
	m.Store.WriteU64(base+64+pim.HashBucketKeyOff, key)
	var out []byte
	p := &pim.PEI{Op: pim.OpHashProbe, Target: base + 64}
	p.SetU64(key)
	p.Done = func(p *pim.PEI) { out = p.Output }
	m.PMU.Issue(p)
	m.K.Run()
	if len(out) != 9 {
		t.Fatalf("hashprobe output %d bytes, want 9", len(out))
	}
	if out[0] != 1 {
		t.Fatal("hashprobe missed a key that is present")
	}
	if got := m.Store.ReadU64(base); got != 1 {
		t.Fatalf("reader PEI corrupted the first target: %d", got)
	}
}

// TestPEIPoolReuseAlternatingOps mixes hash probes and increments from
// one pool on both execution sides, one PEI at a time, until the pool
// has handed structs that last carried one op to the other, in both
// directions. Whatever the previous instruction left behind — its
// input, output, Tag or Done — must not show in the next one.
func TestPEIPoolReuseAlternatingOps(t *testing.T) {
	for _, mode := range []pim.Mode{pim.HostOnly, pim.PIMOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			m := machine.MustNew(config.Scaled(), mode)
			bucket := m.Store.Alloc(64, 64)
			counter := m.Store.Alloc(8, 8)
			const key = 0x77
			m.Store.WriteU64(bucket+pim.HashBucketKeyOff, key)
			var pool pim.PEIPool
			lastOp := make(map[*pim.PEI]pim.OpKind)
			crossings := make(map[[2]pim.OpKind]int)
			probes, incs := 0, 0
			onProbe := func(p *pim.PEI) {
				probes++
				if p.Tag != 3 {
					t.Errorf("probe Tag %d, want 3", p.Tag)
				}
				if want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(p.Output, want) {
					t.Errorf("probe output %v, want %v", p.Output, want)
				}
			}
			onInc := func(p *pim.PEI) {
				incs++
				if p.Output != nil {
					t.Errorf("inc64 output %v, want none", p.Output)
				}
			}
			const n = 200
			for i := 0; i < n; i++ {
				var p *pim.PEI
				if i*7%11 < 5 { // an irregular mix of the two ops
					p = pool.Get(pim.OpHashProbe, bucket)
				} else {
					p = pool.Get(pim.OpInc64, counter)
				}
				if p.Input != nil || p.Output != nil || p.Tag != 0 || p.Done != nil || p.Issuer != nil {
					t.Fatalf("PEI %d carries stale state: input %v output %v tag %d done %v",
						i, p.Input, p.Output, p.Tag, p.Done != nil)
				}
				if prev, ok := lastOp[p]; ok {
					crossings[[2]pim.OpKind{prev, p.Op}]++
				}
				lastOp[p] = p.Op
				if p.Op == pim.OpHashProbe {
					p.SetU64(key)
					p.Tag = 3
					p.Done = onProbe
				} else {
					p.Done = onInc
				}
				m.PMU.Issue(p)
				m.K.Run()
			}
			if crossings[[2]pim.OpKind{pim.OpHashProbe, pim.OpInc64}] == 0 ||
				crossings[[2]pim.OpKind{pim.OpInc64, pim.OpHashProbe}] == 0 {
				t.Fatalf("no struct was reused across ops in both directions: %v", crossings)
			}
			if probes+incs != n {
				t.Fatalf("%d probes and %d increments retired, want %d in all", probes, incs, n)
			}
			if got := m.Store.ReadU64(counter); got != uint64(incs) {
				t.Fatalf("counter %d, want %d", got, incs)
			}
		})
	}
}
