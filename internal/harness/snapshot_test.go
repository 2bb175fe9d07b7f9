package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// snapOptions is tinyOptions plus multi-round workloads, so interior
// phase boundaries actually exist, with a snapshot store rooted at dir
// ("" = no store).
func snapOptions(t *testing.T, dir string) Options {
	t.Helper()
	o := Default()
	o.Scale = 512
	o.OpBudget = 5_000
	o.Workloads = []string{"pr", "bfs"}
	if dir != "" {
		st, err := snap.NewStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		o.SnapshotStore = st
	}
	return o
}

// runSnapCell runs one cell through a fresh runner with a snapshot
// store rooted at dir.
func runSnapCell(t *testing.T, dir string, cell Cell) (*Runner, machine.Result) {
	t.Helper()
	r := NewRunner(snapOptions(t, dir))
	res, err := r.RunCell(context.Background(), cell)
	if err != nil {
		t.Fatalf("cell %v (dir=%q): %v", cell, dir, err)
	}
	return r, res
}

// TestOutputNeutralKnobs pins that the execution knobs change wall time
// only: every combination of {no snapshot store, store} x {Parallelism
// 1, 2} gives the same full Result for each cell.
func TestOutputNeutralKnobs(t *testing.T) {
	var cells []Cell
	for _, wl := range []string{"pr", "bfs", "rp"} {
		for _, mode := range []pim.Mode{pim.HostOnly, pim.LocalityAware} {
			cells = append(cells, Cell{wl, workloads.Small, mode})
		}
	}
	run := func(dir string, parallelism int) []machine.Result {
		o := snapOptions(t, dir)
		o.Workloads = []string{"pr", "bfs", "rp"}
		o.Parallelism = parallelism
		r := NewRunner(o)
		out := make([]machine.Result, len(cells))
		err := r.forEach(context.Background(), len(cells), func(ctx context.Context, i int) error {
			res, err := r.RunCell(ctx, cells[i])
			out[i] = res
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run("", 1)
	variants := []struct {
		store       bool
		parallelism int
		res         []machine.Result
	}{{store: false, parallelism: 2}, {store: true, parallelism: 1}, {store: true, parallelism: 2}}
	for i := range variants {
		v := &variants[i]
		dir := ""
		if v.store {
			dir = t.TempDir()
		}
		v.res = run(dir, v.parallelism)
	}
	for i, c := range cells {
		t.Run(c.key(), func(t *testing.T) {
			for _, v := range variants {
				if !reflect.DeepEqual(v.res[i], want[i]) {
					t.Errorf("store=%v, parallelism=%d: result differs from the plain run\ngot:  %+v\nwant: %+v",
						v.store, v.parallelism, v.res[i], want[i])
				}
			}
		})
	}
}

// TestResumeEquivalence is the tentpole acceptance test: restoring from
// EVERY stored phase boundary must reproduce the cold run's result
// exactly.
func TestResumeEquivalence(t *testing.T) {
	cell := Cell{"pr", workloads.Small, pim.LocalityAware}
	coldDir := t.TempDir()
	coldRunner, coldRes := runSnapCell(t, coldDir, cell)
	rep := coldRunner.SnapshotReport()
	if rep.Store.Misses == 0 || rep.Store.Hits != 0 {
		t.Fatalf("cold run should miss, not hit: %+v", rep.Store)
	}
	blobs, err := filepath.Glob(filepath.Join(coldDir, "*.snap"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("cold run stored no snapshots (err=%v)", err)
	}
	for _, blob := range blobs {
		t.Run(filepath.Base(blob), func(t *testing.T) {
			// A dir holding exactly one boundary forces the resume to
			// start from that phase.
			dir := t.TempDir()
			data, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(blob)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			warmRunner, warmRes := runSnapCell(t, dir, cell)
			if !reflect.DeepEqual(coldRes, warmRes) {
				t.Fatalf("warm result diverged from cold\nwarm: %+v\ncold: %+v", warmRes, coldRes)
			}
			rep := warmRunner.SnapshotReport()
			if rep.Store.Hits != 1 {
				t.Fatalf("warm run should hit once: %+v", rep.Store)
			}
			if rep.CyclesSkipped == 0 {
				t.Fatalf("warm run skipped no cycles: %+v", rep)
			}
		})
	}
}

// TestWarmSweepTables is the sweep-level check behind the CI warm-start
// step, for the two figures named in the acceptance criteria: a cold
// sweep followed by a warm rerun sharing the snapshot dir must render
// byte-identical tables while hitting the store and simulating fewer
// cycles. Fig2 exercises the graph-workload path (runGraphWorkload),
// Fig6-small the size-sweep path.
func TestWarmSweepTables(t *testing.T) {
	figures := []struct {
		name string
		run  func(*Runner) (*Table, error)
	}{
		{"fig2", func(r *Runner) (*Table, error) {
			return r.Fig2(context.Background())
		}},
		{"fig6-small", func(r *Runner) (*Table, error) {
			return r.Fig6(context.Background(), workloads.Small)
		}},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			dir := t.TempDir()
			render := func() ([]byte, SnapshotReport) {
				r := NewRunner(snapOptions(t, dir))
				tb, err := fig.run(r)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				return buf.Bytes(), r.SnapshotReport()
			}
			coldTable, coldRep := render()
			warmTable, warmRep := render()
			if !bytes.Equal(coldTable, warmTable) {
				t.Fatalf("warm table diverged from cold\n--- warm ---\n%s--- cold ---\n%s", warmTable, coldTable)
			}
			if warmRep.Store.Hits == 0 {
				t.Fatalf("warm sweep had no snapshot hits: %+v", warmRep.Store)
			}
			if warmRep.CyclesSimulated >= coldRep.CyclesSimulated {
				t.Fatalf("warm sweep simulated %d cycles, cold %d — warm should be cheaper",
					warmRep.CyclesSimulated, coldRep.CyclesSimulated)
			}
		})
	}
}
