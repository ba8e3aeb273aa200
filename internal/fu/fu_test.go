package fu

import (
	"fmt"
	"testing"

	"icost/internal/isa"
	"icost/internal/rng"
)

func TestNoContentionWhenUnderCapacity(t *testing.T) {
	p := NewPool(DefaultCounts())
	// 6 int ALUs: six bookings in the same cycle all start on time.
	for i := 0; i < 6; i++ {
		if got := p.Book(isa.FUIntALU, 10); got != 10 {
			t.Fatalf("booking %d started at %d, want 10", i, got)
		}
	}
}

func TestContentionDelaysOverflow(t *testing.T) {
	p := NewPool(DefaultCounts())
	for i := 0; i < 6; i++ {
		p.Book(isa.FUIntALU, 10)
	}
	if got := p.Book(isa.FUIntALU, 10); got != 11 {
		t.Fatalf("7th booking started at %d, want 11", got)
	}
	if got := p.Book(isa.FUIntALU, 10); got != 11 {
		t.Fatalf("8th booking started at %d, want 11", got)
	}
}

func TestClassesIndependent(t *testing.T) {
	p := NewPool(DefaultCounts())
	for i := 0; i < 6; i++ {
		p.Book(isa.FUIntALU, 5)
	}
	if got := p.Book(isa.FULoadStore, 5); got != 5 {
		t.Fatalf("load port delayed by ALU contention: %d", got)
	}
}

func TestLaterReadyNeverStartsEarly(t *testing.T) {
	p := NewPool(DefaultCounts())
	if got := p.Book(isa.FUIntMul, 100); got != 100 {
		t.Fatalf("start %d, want 100", got)
	}
}

func TestOutOfOrderBookingExact(t *testing.T) {
	// An instruction booked later in program order but ready earlier
	// in time must claim the earlier cycle — no fabricated
	// contention from booking order.
	p := NewPool(DefaultCounts())
	if got := p.Book(isa.FUIntMul, 100); got != 100 {
		t.Fatalf("late booking at %d", got)
	}
	if got := p.Book(isa.FUIntMul, 5); got != 5 {
		t.Fatalf("early booking pushed to %d, want 5", got)
	}
	// Cycle 100 already holds one of two multipliers; two more fit
	// at 100 and then overflow to 101.
	if got := p.Book(isa.FUIntMul, 100); got != 100 {
		t.Fatalf("second slot at cycle 100 given %d", got)
	}
	if got := p.Book(isa.FUIntMul, 100); got != 101 {
		t.Fatalf("overflow booking at %d, want 101", got)
	}
}

func TestSaturatedStretch(t *testing.T) {
	// Hammer one class far past capacity and check slots spread
	// exactly cap-per-cycle.
	c := Counts{}
	for k := range c {
		c[k] = 1
	}
	c[isa.FUIntALU] = 3
	p := NewPool(c)
	counts := map[int64]int{}
	for i := 0; i < 300; i++ {
		counts[p.Book(isa.FUIntALU, 0)]++
	}
	for cy := int64(0); cy < 100; cy++ {
		if counts[cy] != 3 {
			t.Fatalf("cycle %d has %d bookings, want 3", cy, counts[cy])
		}
	}
}

func TestPipelinedIssueOnePerCyclePerUnit(t *testing.T) {
	c := Counts{}
	for k := range c {
		c[k] = 1
	}
	p := NewPool(c)
	if got := p.Book(isa.FUFloatMul, 0); got != 0 {
		t.Fatalf("start %d", got)
	}
	if got := p.Book(isa.FUFloatMul, 0); got != 1 {
		t.Fatalf("start %d, want 1 (issue interval)", got)
	}
	if got := p.Book(isa.FUFloatMul, 5); got != 5 {
		t.Fatalf("start %d, want 5 (pipelined)", got)
	}
}

func TestReset(t *testing.T) {
	p := NewPool(DefaultCounts())
	for i := 0; i < 10; i++ {
		p.Book(isa.FUIntMul, 0)
	}
	p.Reset()
	if got := p.Book(isa.FUIntMul, 0); got != 0 {
		t.Fatalf("after reset, start %d", got)
	}
}

func TestZeroUnitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-unit class")
		}
	}()
	NewPool(Counts{})
}

func TestAdvancingFloorBoundsSchedule(t *testing.T) {
	// A long rising booking stream, like the simulator's: the bookings
	// run a fixed lag ahead of the floor, so only that lag's worth of
	// cycles may stay resident however long the stream runs.
	const lag = 200
	p := NewPool(DefaultCounts())
	s := NewSched(2)
	maxSpan := 0
	for cy := int64(0); cy < 1_000_000; cy++ {
		p.Advance(cy)
		s.Advance(cy)
		if got := p.Book(isa.FUIntMul, cy+lag); got < cy+lag {
			t.Fatalf("booking at %d before ready %d", got, cy+lag)
		}
		// Fill the store-port schedule's cycle exactly, so every
		// retained cycle also carries a forwarding pointer.
		for k := 0; k < 2; k++ {
			if got := s.Book(cy + lag); got != cy+lag {
				t.Fatalf("cycle %d booking %d at %d", cy, k, got)
			}
		}
		maxSpan = max(maxSpan, len(s.cnt), len(p.sched[isa.FUIntMul].cnt))
	}
	// The ring doubles past the lag once and then never again.
	if maxSpan > 2*lag {
		t.Fatalf("retained span reached %d cycles over a %d-cycle lag", maxSpan, lag)
	}
}

func TestBookingBelowFloorPanics(t *testing.T) {
	s := NewSched(1)
	s.Advance(100)
	s.Advance(50) // a lower floor is a no-op
	if got := s.Book(100); got != 100 {
		t.Fatalf("booking at floor given %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a booking below the floor")
		}
	}()
	s.Book(99)
}

func TestFarBookingsStayBounded(t *testing.T) {
	// Bookings a billion cycles ahead of a floor that advances by a
	// million per step: the ring must not stretch to cover the span,
	// and the overflow holds only the bookings still ahead of the floor.
	const step, lag = 1 << 20, 1 << 30
	s := NewSched(1)
	maxFar := 0
	for k := int64(0); k < 20_000; k++ {
		s.Advance(k * step)
		if got := s.Book(k*step + lag); got != k*step+lag {
			t.Fatalf("step %d: booking at %d, want %d", k, got, k*step+lag)
		}
		maxFar = max(maxFar, len(s.far))
	}
	if len(s.cnt) != initRing {
		t.Fatalf("ring grew to %d cycles for far bookings", len(s.cnt))
	}
	if maxFar > lag/step+1 {
		t.Fatalf("overflow held %d cycles, want at most %d in flight", maxFar, lag/step+1)
	}
}

func TestScheduleMatchesNaiveModel(t *testing.T) {
	// Random out-of-order bookings against a plain per-cycle count
	// with a linear search, under an advancing floor. The reaches
	// cover the ring alone, ring growth, and the overflow with both
	// of pull's walks (floor steps shorter and longer than the
	// overflow).
	for _, tc := range []struct {
		cap         int
		reach, jump int64
	}{
		{1, 8, 16}, {3, 300, 4}, {2, 3 * maxRing, 64}, {2, 3 * maxRing, 4 * maxRing}, {1, 1 << 30, 1 << 24},
	} {
		t.Run(fmt.Sprintf("cap%d_reach%d_jump%d", tc.cap, tc.reach, tc.jump), func(t *testing.T) {
			r := rng.New(uint64(tc.reach + tc.jump))
			s := NewSched(tc.cap)
			want := map[int64]int{}
			floor := int64(0)
			for k := 0; k < 20_000; k++ {
				if r.Intn(4) == 0 {
					floor += r.Int63n(tc.jump)
					s.Advance(floor)
				}
				ready := floor + r.Int63n(tc.reach)
				c := ready
				for want[c] >= tc.cap {
					c++
				}
				want[c]++
				if got := s.Book(ready); got != c {
					t.Fatalf("booking %d ready %d (floor %d): got %d, want %d", k, ready, floor, got, c)
				}
			}
		})
	}
}
