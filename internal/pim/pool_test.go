package pim

import (
	"testing"

	"pimsim/internal/hmc"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// The pooled-transaction lifecycle rules (DESIGN.md §11): a release
// must scrub every field so the next acquisition starts clean, and a
// double release must panic rather than corrupt the free list.

func TestPEITxnPoolReuseCarriesNoStaleState(t *testing.T) {
	p := &PMU{}
	tx := p.getTxn()
	tx.pei = &PEI{Op: OpInc64}
	tx.start = 42
	tx.writer = true
	tx.compute = 9
	tx.outBytes = 8
	tx.locked = true
	tx.pending = 2
	tx.pcu = &PCU{}
	tx.dt = &hmc.Txn{}
	p.putTxn(tx)

	got := p.getTxn()
	if got != tx {
		t.Fatal("pool did not recycle the released transaction")
	}
	if got.p != p {
		t.Fatal("recycled transaction lost its owner")
	}
	if got.pei != nil || got.start != 0 || got.writer || got.compute != 0 ||
		got.outBytes != 0 || got.locked || got.pending != 0 || got.pcu != nil || got.dt != nil {
		t.Fatalf("recycled transaction carries stale state: %+v", got)
	}
}

func TestPEITxnDoubleReleasePanics(t *testing.T) {
	p := &PMU{}
	tx := p.getTxn()
	p.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.putTxn(tx)
}

func TestDirTxnDoubleReleasePanics(t *testing.T) {
	d := &Directory{}
	tx := d.getTxn()
	d.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	d.putTxn(tx)
}

func TestPEIPoolDoubleReleasePanics(t *testing.T) {
	var pool PEIPool
	p := pool.Get(OpInc64, 64)
	p.Complete()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Complete()
}

// TestPEIPoolReuseCarriesNoStaleState: a recycled PEI comes back with
// only the op and target it was asked for.
func TestPEIPoolReuseCarriesNoStaleState(t *testing.T) {
	var pool PEIPool
	calls := 0
	var first *PEI
	// One slab's worth of PEIs, each dirtied and completed; the next Get
	// reuses the slab from its start.
	for i := 0; i < peiSlabLen; i++ {
		p := pool.Get(OpHashProbe, 64)
		if first == nil {
			first = p
		}
		p.SetU64(42)
		p.Output = p.out[:9]
		p.Core, p.Tag = 3, 7
		p.Done = func(*PEI) { calls++ }
		p.Complete()
	}
	if calls != peiSlabLen {
		t.Fatalf("Done ran %d times, want %d", calls, peiSlabLen)
	}
	got := pool.Get(OpInc64, 128)
	if got != first {
		t.Fatal("pool did not recycle the completed slab")
	}
	if got.Op != OpInc64 || got.Target != 128 || got.Input != nil || got.Output != nil ||
		got.Core != 0 || got.Tag != 0 || got.Done != nil || got.Issuer != nil {
		t.Fatalf("recycled PEI carries stale state: %+v", got)
	}
}

// TestPEIPoolSteadyStateAllocsWithStraggler: a PEI that stays in flight
// pins only its own slab. The pool keeps cycling through the others
// without allocating, and the pinned slab becomes spare when the
// straggler completes.
func TestPEIPoolSteadyStateAllocsWithStraggler(t *testing.T) {
	var pool PEIPool
	straggler := pool.Get(OpInc64, 64)
	pinned := pool.cur
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 3*peiSlabLen; i++ {
			pool.Get(OpInc64, 64).Complete()
		}
	})
	if allocs != 0 {
		t.Fatalf("pool allocates %.1f objects per %d PEIs in steady state, want 0", allocs, 3*peiSlabLen)
	}
	straggler.Complete()
	if len(pool.spare) != 1 || pool.spare[0] != pinned {
		t.Fatalf("straggler's slab not spare after it completed (%d spares)", len(pool.spare))
	}
}

// TestIdealDirectorySteadyStateAllocs: ideal-mode lock entries are
// recycled when released, so locking a stream of distinct blocks and
// fencing between them allocates nothing once warm.
func TestIdealDirectorySteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	d := NewDirectory(k, 0, 0, true, stats.NewRegistry())
	blk := uint64(0)
	granted := sim.Cont{H: sim.Call(func() {}).H}
	round := func() {
		for i := 0; i < 16; i++ {
			blk += 64
			d.AcquireEvent(blk, true, granted)
		}
		d.FenceEvent(granted)
		k.Run()
		for i := 0; i < 16; i++ {
			d.Release(blk-uint64(i)*64, true)
		}
		k.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("ideal directory allocates %.2f objects per round, want 0", allocs)
	}
	if len(d.idealLocks) != 0 {
		t.Fatalf("%d ideal entries left after release", len(d.idealLocks))
	}
}
