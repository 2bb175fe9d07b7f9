package pei_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pimsim/pei"
)

func TestJobSpecNormalizeInfersKindAndDefaults(t *testing.T) {
	spec, _, err := pei.JobSpec{Workload: "bfs"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != pei.JobWorkload || spec.Size != "small" || spec.Mode != "locality" ||
		spec.Scale != 64 || spec.Threads <= 0 {
		t.Fatalf("normalized: %+v", spec)
	}

	espec, _, err := pei.JobSpec{Experiment: "sec76"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if espec.Kind != pei.JobExperiment || espec.Experiment != "sec7.6" {
		t.Fatalf("alias not canonicalized: %+v", espec)
	}
	if espec.OpBudget != 60_000 || espec.Pairs != 40 || len(espec.Workloads) != 10 {
		t.Fatalf("experiment defaults: %+v", espec)
	}
}

func TestJobSpecNormalizeRejectsInvalid(t *testing.T) {
	bad := []pei.JobSpec{
		{},
		{Workload: "bfs", Experiment: "fig2"},
		{Workload: "zzz"},
		{Experiment: "fig99"},
		{Workload: "bfs", Size: "tiny"},
		{Workload: "bfs", Mode: "quantum"},
		{Workload: "bfs", Config: "gigantic"},
		{Workload: "bfs", Verify: true, OpBudget: 100},
		{Experiment: "fig6", Workloads: []string{"nope"}},
		{Workload: "bfs", Overrides: json.RawMessage(`{"Cores": -3}`)},
	}
	for _, s := range bad {
		if _, _, err := s.Normalize(); err == nil {
			t.Errorf("spec %+v should not normalize", s)
		}
	}
}

func TestJobSpecDigestStability(t *testing.T) {
	a, err := pei.JobSpec{Workload: "bfs"}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the defaults yields the same digest.
	b, err := pei.JobSpec{
		Kind: pei.JobWorkload, Workload: "bfs", Size: "small", Mode: "locality-aware",
		Config: "scaled", Scale: 64,
	}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent specs digest differently:\n%s\n%s", a, b)
	}
	// Overrides that restate the preset collapse too (the digest hashes
	// the resolved config).
	c, err := pei.JobSpec{Workload: "bfs", Overrides: json.RawMessage(`{}`)}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("no-op overrides changed the digest")
	}
	// Fields the spec no longer has (the retired "kernel" and
	// "kernel_workers" knobs) are ignored when decoding, so older
	// clients' jobs keep their digests.
	var old pei.JobSpec
	if err := json.Unmarshal([]byte(`{"workload":"bfs","kernel":"pdes","kernel_workers":8}`), &old); err != nil {
		t.Fatal(err)
	}
	k, err := old.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != k {
		t.Fatal("a retired kernel field changed the digest")
	}

	for _, different := range []pei.JobSpec{
		{Workload: "bfs", Mode: "pim"},
		{Workload: "bfs", Scale: 128},
		{Workload: "bfs", Seed: 1},
		{Workload: "pr"},
		{Workload: "bfs", Config: "baseline"},
		{Workload: "bfs", Overrides: json.RawMessage(`{"Cores": 2}`)},
	} {
		d, err := different.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d == a {
			t.Errorf("spec %+v should digest differently", different)
		}
	}
}

func TestRunJobWorkloadDeterministic(t *testing.T) {
	spec := pei.JobSpec{Workload: "bfs", Scale: 4096, OpBudget: 2000}
	run := func() string {
		var buf bytes.Buffer
		if err := pei.RunJob(context.Background(), spec, &buf, pei.RunJobOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	if !strings.Contains(first, "cycles") || !strings.Contains(first, "workload        bfs") {
		t.Fatalf("unexpected report:\n%s", first)
	}
	if second := run(); second != first {
		t.Fatalf("reports differ:\n%s\n---\n%s", first, second)
	}
}

func TestRunJobExperimentEmitsProgress(t *testing.T) {
	spec := pei.JobSpec{Experiment: "fig6", Scale: 2048, OpBudget: 1000, Workloads: []string{"hg"}}
	var buf bytes.Buffer
	var events []pei.JobProgress
	err := pei.RunJob(context.Background(), spec, &buf, pei.RunJobOptions{
		Parallelism: 1,
		Progress:    func(p pei.JobProgress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatalf("missing table:\n%s", buf.String())
	}
	starts, dones := 0, 0
	for _, ev := range events {
		if ev.Cell == "" {
			t.Fatalf("event without cell: %+v", ev)
		}
		if ev.Done {
			dones++
			if ev.Cycles <= 0 {
				t.Fatalf("done event without cycles: %+v", ev)
			}
		} else {
			starts++
		}
	}
	if starts == 0 || starts != dones {
		t.Fatalf("unbalanced progress events: %d starts, %d dones", starts, dones)
	}
}

func TestRunJobCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := pei.RunJob(ctx, pei.JobSpec{Workload: "bfs", Scale: 4096}, &buf, pei.RunJobOptions{})
	if err == nil {
		t.Fatal("cancelled job should fail")
	}
}

// TestRunJobOptionsAreOutputNeutral pins RunJobOptions' contract: the
// execution knobs change wall time only. A job run with parallelism and
// a snapshot store — cold, then warm from the boundaries the cold run
// stored — writes the same bytes as a job run with neither.
func TestRunJobOptionsAreOutputNeutral(t *testing.T) {
	specs := []pei.JobSpec{
		{Workload: "bfs", Mode: "host", Scale: 2048, Verify: true},
		{Experiment: "fig6", Scale: 1024, OpBudget: 2000, Workloads: []string{"pr", "bfs", "sc"}},
	}
	run := func(spec pei.JobSpec, opts pei.RunJobOptions) string {
		t.Helper()
		var buf bytes.Buffer
		if err := pei.RunJob(context.Background(), spec, &buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, spec := range specs {
		want := run(spec, pei.RunJobOptions{})
		store, err := pei.OpenSnapshotStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got := run(spec, pei.RunJobOptions{Parallelism: 2, Snapshots: store})
			if got != want {
				t.Errorf("%s%s job, %s store: output differs from a plain run\n--- got ---\n%s--- want ---\n%s",
					spec.Workload, spec.Experiment, pass, got, want)
			}
		}
		if st := store.Stats(); st.Hits == 0 {
			t.Errorf("%s%s job: warm run never resumed from a stored boundary: %+v", spec.Workload, spec.Experiment, st)
		}
	}
}
