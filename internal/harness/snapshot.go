package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// This file is the harness's one execution driver. Every workload run
// goes through RunPhased: the workload's supersteps are cut at quiescent
// boundaries and the machine drains at each one. A snapshot store only
// decides whether those boundaries are persisted — each interior
// boundary is serialized into the content-addressed blob store, and a
// later run of the same cell resumes from the deepest stored boundary
// instead of simulating from cycle 0. With or without a store, and cold
// or warm, the result is the same.

// snapshotDigest content-addresses a cell: everything that determines
// the simulated trajectory — final machine config, workload identity and
// parameters, PEI mode — plus the snapshot format version.
func snapshotDigest(cfg *config.Config, name string, p workloads.Params, mode pim.Mode) string {
	blob, err := json.Marshal(struct {
		Version  uint32
		Cfg      *config.Config
		Workload string
		Params   workloads.Params
		Mode     string
	}{snap.Version, cfg, name, p, mode.String()})
	if err != nil {
		// Params and Config are plain data; marshal cannot fail.
		panic(fmt.Sprintf("harness: snapshot digest: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// SnapshotReport summarizes the runner's warm-start activity: the blob
// store's counters plus the cycle ledger (simulated this run vs skipped
// by resuming from snapshots).
type SnapshotReport struct {
	Store snap.StoreStats
	// CyclesSimulated is the total cycles actually driven this run.
	CyclesSimulated int64
	// CyclesSkipped is the total cycles warm starts did not re-simulate
	// (each resumed cell contributes its restore cycle).
	CyclesSkipped int64
}

// SnapshotReport returns the warm-start summary (the store counters
// are zero when no store is set).
func (r *Runner) SnapshotReport() SnapshotReport {
	rep := SnapshotReport{
		CyclesSimulated: r.cyclesSimulated.Load(),
		CyclesSkipped:   r.cyclesSkipped.Load(),
	}
	if st := r.Opts.SnapshotStore; st != nil {
		rep.Store = st.Stats()
	}
	return rep
}

// RunPhased runs workload name on a fresh machine built from cfg, one
// superstep at a time, draining the machine to a quiescent boundary
// after each. It is the one driver behind every workload run — harness
// cells, pei.RunWorkload and workload jobs.
//
// st may be nil. When it is set, the run resumes from the deepest
// stored boundary of the same cell and stores every interior boundary
// it passes; a stored boundary that fails to restore is deleted (and
// reported through logf, if non-nil) and the run starts cold. Neither
// changes the result. verify checks functional results against the
// workload's golden implementation after the run. RunPhased returns the
// result and the cycle the run resumed from (0 for a cold run).
func RunPhased(ctx context.Context, cfg *config.Config, name string, p workloads.Params, mode pim.Mode, st *snap.Store, verify bool, logf func(format string, args ...interface{})) (machine.Result, int64, error) {
	build := func() (*machine.Machine, workloads.Workload, []cpu.Stream, error) {
		w, err := workloads.New(name, p)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := machine.New(cfg, mode)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, w, w.Streams(m), nil
	}
	m, w, streams, err := build()
	if err != nil {
		return machine.Result{}, 0, err
	}

	var digest string
	rounds := w.Rounds()
	phase := 0
	if st != nil {
		digest = snapshotDigest(cfg, name, p, mode)
		if blob, ok := st.Best(digest); ok {
			err := func() error {
				f, err := os.Open(blob.Path)
				if err != nil {
					return err
				}
				defer f.Close()
				return m.RestoreFrom(f, w.RestoreFrom)
			}()
			if err != nil {
				// A torn or stale blob must not poison the run: drop it
				// and rebuild cold (restore may have half-mutated the
				// machine).
				if logf != nil {
					logf("  snapshot %s unusable (%v), running cold", blob.Path, err)
				}
				os.Remove(blob.Path)
				if m, w, streams, err = build(); err != nil {
					return machine.Result{}, 0, err
				}
			} else {
				phase = blob.Phase
			}
		}
	}

	resumed := int64(m.K.Now())
	for ; ; phase++ {
		final := phase+1 >= rounds
		if final {
			w.SetRoundLimit(0) // final phase runs to completion, tail included
		} else {
			w.SetRoundLimit(phase + 1)
		}
		if err := m.Start(streams); err != nil {
			return machine.Result{}, 0, err
		}
		if err := m.Drive(ctx); err != nil {
			return machine.Result{}, 0, err
		}
		if final {
			break
		}
		if st == nil {
			continue
		}
		var buf bytes.Buffer
		if err := m.SnapshotTo(&buf, w.SnapshotTo); err != nil {
			return machine.Result{}, 0, err
		}
		if err := st.Put(digest, phase+1, int64(m.K.Now()), buf.Bytes()); err != nil {
			return machine.Result{}, 0, err
		}
	}
	if err := m.CheckDone(streams); err != nil {
		return machine.Result{}, 0, err
	}
	res := m.Finish()
	if verify {
		if err := w.Verify(m); err != nil {
			return res, resumed, err
		}
	}
	return res, resumed, nil
}
