package sim

import (
	"testing"
	"testing/quick"
)

func TestLinkSerialization(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 4) // 16 B/cycle, 4-cycle latency
	var at Cycle
	l.SendEvent(64, Call(func() { at = k.Now() }).H, EventArg{}) // 4 cycles occupancy + 4 latency
	k.Run()
	if at != 8 {
		t.Fatalf("delivery at %d, want 8", at)
	}
}

func TestLinkQueueing(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 0)
	var first, second Cycle
	l.SendEvent(64, Call(func() { first = k.Now() }).H, EventArg{})  // occupies 0..4
	l.SendEvent(64, Call(func() { second = k.Now() }).H, EventArg{}) // occupies 4..8
	k.Run()
	if first != 4 || second != 8 {
		t.Fatalf("deliveries at %d,%d; want 4,8", first, second)
	}
}

func TestLinkFractionalBandwidthRoundsUp(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 9, 0) // crossbar port: 144-bit @2GHz = 9 B per 4GHz cycle
	var at Cycle
	l.SendEvent(80, Call(func() { at = k.Now() }).H, EventArg{}) // ceil(80/9) = 9
	k.Run()
	if at != 9 {
		t.Fatalf("delivery at %d, want 9", at)
	}
}

func TestLinkFlitAccounting(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 20, 1)
	l.SendEvent(16, nil, EventArg{}) // 1 flit
	l.SendEvent(17, nil, EventArg{}) // 2 flits
	l.SendEvent(80, nil, EventArg{}) // 5 flits
	k.Run()
	if l.FlitsTransferred != 8 {
		t.Fatalf("flits = %d, want 8", l.FlitsTransferred)
	}
	if l.BytesTransferred != 113 {
		t.Fatalf("bytes = %d, want 113", l.BytesTransferred)
	}
}

func TestLinkIdleGapDoesNotAccumulate(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 0)
	l.SendEvent(16, nil, EventArg{}) // occupies cycle 0..1
	k.ScheduleEvent(100, Call(func() {
		var at Cycle
		l.SendEvent(16, Call(func() { at = k.Now() }).H, EventArg{})
		k.ScheduleEvent(50, Call(func() {
			if at != 101 {
				t.Errorf("post-idle delivery at %d, want 101", at)
			}
		}).H, EventArg{})
	}).H, EventArg{})
	k.Run()
}

func TestLinkQueueDelay(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 1, 0)
	l.SendEvent(10, nil, EventArg{})
	if d := l.QueueDelay(); d != 10 {
		t.Fatalf("QueueDelay = %d, want 10", d)
	}
	k.RunUntil(10)
	if d := l.QueueDelay(); d != 0 {
		t.Fatalf("QueueDelay after drain = %d, want 0", d)
	}
}

// Property: for any sequence of packet sizes, total busy time equals the
// sum of per-packet occupancies, and deliveries are in order.
func TestLinkBusyProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		k := NewKernel()
		l := NewLink(k, 4, 2)
		var want Cycle
		var lastDelivery Cycle = -1
		ordered := true
		for _, s := range sizes {
			n := int(s)
			if n == 0 {
				n = 1
			}
			want += Cycle((n + 3) / 4)
			l.SendEvent(n, Call(func() {
				if k.Now() < lastDelivery {
					ordered = false
				}
				lastDelivery = k.Now()
			}).H, EventArg{})
		}
		k.Run()
		return l.Busy == want && ordered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLinkSendEventEarly pins that an early-lane delivery dispatches
// before an ordinary event scheduled earlier for the same cycle, with
// the same serialization accounting as SendEvent.
func TestLinkSendEventEarly(t *testing.T) {
	k := NewKernel()
	l := NewLink(k, 16, 4)
	var got []int64
	r := &recorder{out: &got}
	k.AtEvent(8, r, EventArg{N: 2})
	if at := l.SendEventEarly(64, r, EventArg{N: 1}); at != 8 {
		t.Fatalf("delivery cycle %d, want 8", at)
	}
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dispatch order %v, want [1 2]", got)
	}
	if l.Busy != 4 || l.FlitsTransferred != 4 {
		t.Fatalf("busy %d flits %d, want 4 and 4", l.Busy, l.FlitsTransferred)
	}
}
