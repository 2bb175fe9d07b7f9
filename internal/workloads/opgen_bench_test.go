package workloads

import (
	"runtime"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
)

// drainStreams consumes streams the way the machine would without its
// timing: round-robin up to each superstep barrier, executing and
// completing every PEI as it is generated (functional execution plus
// the recycling retire performs). It returns the ops and PEIs drained.
func drainStreams(m *machine.Machine, streams []cpu.Stream) (ops, peis int) {
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		for i, s := range streams {
			for !done[i] {
				op, ok := s.Next()
				if !ok {
					done[i] = true
					live--
					break
				}
				ops++
				if op.Kind == cpu.OpPEI {
					peis++
					op.PEI.Execute(m.Store)
					op.PEI.Complete()
				}
				if op.Kind == cpu.OpBarrier {
					break // resume once every stream reached it
				}
			}
		}
	}
	return ops, peis
}

// BenchmarkOpGeneration measures the op-generation layer alone: each
// workload's streams (medium inputs, scale 64, run to completion and
// verified) drained with functional PEI execution and no timing model.
// It reports ns per generated op, heap objects per PEI, and PEIs per
// run; setup (input layout and machine construction) is excluded.
// Objects per PEI include each stream's PEI pool and op buffer growing
// to its largest generation chunk, so they are highest where a run is
// short next to its chunks (svm generates its whole input in two).
func BenchmarkOpGeneration(b *testing.B) {
	cfg := config.Scaled()
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			var mallocs float64
			var ops, peis int
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := MustNew(name, Params{Threads: cfg.Cores, Size: Medium, Scale: 64})
				m := machine.MustNew(cfg, pim.LocalityAware)
				streams := w.Streams(m)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				n, p := drainStreams(m, streams)
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += float64(ms.Mallocs - before)
				ops += n
				peis += p
				if err := w.Verify(m); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
			b.ReportMetric(mallocs/float64(peis), "allocs/PEI")
			b.ReportMetric(float64(peis)/float64(b.N), "PEIs/run")
		})
	}
}
