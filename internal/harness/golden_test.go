package harness

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenOptions mirrors the scaled-down bench configuration so the run
// finishes in about a second while still exercising every mode.
func goldenOptions() Options {
	o := Default()
	o.Scale = 512
	o.OpBudget = 8_000
	o.Pairs = 4
	cfg := config.Scaled()
	cfg.L1 = config.CacheConfig{SizeBytes: 2 << 10, Ways: 4, LatencyCycles: 4, MSHRs: 8}
	cfg.L2 = config.CacheConfig{SizeBytes: 8 << 10, Ways: 8, LatencyCycles: 12, MSHRs: 8}
	cfg.L3 = config.CacheConfig{SizeBytes: 64 << 10, Ways: 16, LatencyCycles: 30, MSHRs: 32}
	cfg.L3Banks = 4
	o.Cfg = cfg
	return o
}

// TestFig6SmallGolden pins the rendered Figure 6 (small inputs) table;
// simulated timing must stay byte-identical across internal changes.
// The golden file was last regenerated deliberately when phased
// execution became the only execution model: every run now drains the
// machine to one global quiescent cycle at each superstep boundary,
// where the retired one-shot path let each core resume at its own
// fence-completion cycle. The regenerated table is byte-identical to
// what the two-model tree rendered with a snapshot store set, which
// already selected phased execution. Regenerate with
// `go test ./internal/harness -run Fig6SmallGolden -update` only after
// a change that is *supposed* to alter simulated behavior.
func TestFig6SmallGolden(t *testing.T) {
	r := NewRunner(goldenOptions())
	tb, err := r.Fig6(context.Background(), workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tb.Render(&buf)

	golden := filepath.Join("testdata", "fig6_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fig6 small table drifted from golden\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
