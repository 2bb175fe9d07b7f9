package sim

import "testing"

// TestFIFOPoolReuseWraparound covers the ring's three rules: entries
// leave in push order across wraparound and across growth, and Pop
// zeroes the slot it vacates so a drained ring pins no handler.
func TestFIFOPoolReuseWraparound(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = i
	}
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.Push(&vals[next])
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if got := *q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	// Walk the head around the initial 8-slot ring several times.
	for i := 0; i < 5; i++ {
		push(5)
		pop(5)
	}
	if len(q.buf) != 8 {
		t.Fatalf("ring grew to %d slots at occupancy 5, want 8", len(q.buf))
	}
	// Grow while the live entries straddle the wrap point.
	push(6)
	pop(3)
	push(10) // 13 live entries: forces a doubling mid-wrap
	if q.Len() != 13 || len(q.buf) != 16 {
		t.Fatalf("len %d cap %d, want 13 and 16", q.Len(), len(q.buf))
	}
	if got := *q.Front(); got != want {
		t.Fatalf("front %d, want %d", got, want)
	}
	pop(13)
	if q.Len() != 0 {
		t.Fatalf("len %d after draining", q.Len())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references %d after Pop", i, *p)
		}
	}
}

// TestFIFOSteadyStateAllocs pins that a warm ring never reallocates,
// even when it never drains completely.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO[Cont]
	for i := 0; i < 4; i++ {
		q.Push(Cont{})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(Cont{})
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.2f objects, want 0", allocs)
	}
}

func TestFIFOEmptyPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}
