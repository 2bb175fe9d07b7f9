package sim

import (
	"testing"
)

// TestKernelSteadyStateZeroAllocs pins the headline property of the
// calendar-queue scheduler: once bucket capacity is warm, a
// ScheduleEvent+Step round trip performs no heap allocations.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	k := NewKernel()
	h := Call(func() {}).H
	// Warm up with the same access pattern the measurement uses, walking
	// every ring slot at least once so each bucket slice has capacity.
	for i := 0; i < 2*ringWindow; i++ {
		k.ScheduleEvent(3, h, EventArg{})
		k.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleEvent(3, h, EventArg{})
		if !k.Step() {
			t.Fatal("no event dispatched")
		}
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent+Step allocated %.1f objects/op, want 0", allocs)
	}
}

// TestKernelFIFOAcrossOverflow schedules same-cycle events through both
// paths — directly into the ring and via the far-event overflow heap
// (scheduled before the target cycle entered the ring's window) — and
// checks global FIFO order is still scheduling order.
func TestKernelFIFOAcrossOverflow(t *testing.T) {
	k := NewKernel()
	target := Cycle(ringWindow + 500) // beyond the initial window
	var got []int
	// First two land in the overflow heap.
	k.AtEvent(target, Call(func() { got = append(got, 0) }).H, EventArg{})
	k.AtEvent(target, Call(func() { got = append(got, 1) }).H, EventArg{})
	// Walk time forward so target migrates into the ring, then append
	// two more directly.
	k.AtEvent(target-1, Call(func() {
		k.ScheduleEvent(1, Call(func() { got = append(got, 2) }).H, EventArg{})
		k.ScheduleEvent(1, Call(func() { got = append(got, 3) }).H, EventArg{})
	}).H, EventArg{})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events ran out of scheduling order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("dispatched %d of 4 events", len(got))
	}
}

// TestKernelFarEventsOrdered drives events spread far beyond the ring
// window in scrambled scheduling order and checks time-ordered dispatch.
func TestKernelFarEventsOrdered(t *testing.T) {
	k := NewKernel()
	var got []Cycle
	cycles := []Cycle{5 * ringWindow, 3, 2 * ringWindow, ringWindow - 1, 7 * ringWindow, ringWindow, 1}
	for _, c := range cycles {
		c := c
		k.AtEvent(c, Call(func() { got = append(got, c) }).H, EventArg{})
	}
	k.Run()
	want := []Cycle{1, 3, ringWindow - 1, ringWindow, 2 * ringWindow, 5 * ringWindow, 7 * ringWindow}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if k.Now() != 7*ringWindow {
		t.Fatalf("Now() = %d", k.Now())
	}
}

// TestKernelIdleJumpThenSchedule exercises the base re-sync path: a long
// idle RunUntil leaves now far past the ring origin; subsequent
// scheduling must still dispatch correctly.
func TestKernelIdleJumpThenSchedule(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100 * ringWindow)
	if k.Now() != 100*ringWindow {
		t.Fatalf("Now() = %d", k.Now())
	}
	var got []int
	k.ScheduleEvent(0, Call(func() { got = append(got, 0) }).H, EventArg{})
	k.ScheduleEvent(5, Call(func() { got = append(got, 1) }).H, EventArg{})
	k.ScheduleEvent(Cycle(2*ringWindow), Call(func() { got = append(got, 2) }).H, EventArg{})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
	if len(got) != 3 || k.Now() != 102*ringWindow {
		t.Fatalf("got %v, Now() = %d", got, k.Now())
	}
}

// TestKernelRunUntilBeyondWindow checks RunUntil leaves far events
// queued and does not disturb later scheduling near the limit.
func TestKernelRunUntilBeyondWindow(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.AtEvent(10, Call(func() { fired++ }).H, EventArg{})
	k.AtEvent(3*ringWindow, Call(func() { fired++ }).H, EventArg{})
	k.RunUntil(2 * ringWindow)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// Scheduling at the current (jumped-to) time still works.
	k.ScheduleEvent(1, Call(func() { fired++ }).H, EventArg{})
	k.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}
