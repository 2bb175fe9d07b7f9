package sim

import "testing"

// BenchmarkKernelScheduleStep measures the steady-state scheduler round
// trip: one ScheduleEvent into the near-future ring plus one Step
// dispatch. This is the per-event cost every timed component pays.
func BenchmarkKernelScheduleStep(b *testing.B) {
	k := NewKernel()
	h := Call(func() {}).H
	k.ScheduleEvent(1, h, EventArg{})
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleEvent(3, h, EventArg{})
		k.Step()
	}
}

// BenchmarkKernelScheduleStepFar stresses the overflow heap: every event
// lands beyond the ring window and migrates in.
func BenchmarkKernelScheduleStepFar(b *testing.B) {
	k := NewKernel()
	h := Call(func() {}).H
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleEvent(ringWindow+17, h, EventArg{})
		k.Step()
	}
}
