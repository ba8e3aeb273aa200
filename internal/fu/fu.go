// Package fu models the functional-unit pools of the simulated
// machine (paper Table 6): 6 integer ALUs, 2 integer multipliers,
// 4 FP adders, 2 FP multiply/divide units, and 3 load/store ports.
// Units are fully pipelined with an issue interval of one cycle, so a
// pool of N units accepts at most N new operations per cycle. The
// delay an operation spends waiting for a free issue slot is the
// "functional unit contention" latency the dependence-graph model
// records on RE edges (paper Figure 5b).
//
// Bookings are exact regardless of the order they arrive in: the pool
// keeps a per-cycle occupancy schedule, so an instruction processed
// later in program order but ready earlier in time correctly claims
// an earlier slot. (The simulator processes instructions in program
// order while their ready times are out of order, especially under
// idealized re-simulation, so a naive "next free unit" model would
// fabricate contention.)
//
// The schedule is bounded, not a log of every cycle ever booked: the
// caller advances a floor below which no booking can ask (the
// simulator passes its dispatch time, which is monotone and lies at or
// below every issue and store-commit cycle it books), and cycles under
// the floor are dropped as it passes them. Retained state is therefore
// bounded by the bookings in flight, not by trace length or by how far
// ahead of the floor a long latency pushes a booking.
package fu

import "icost/internal/isa"

// Counts is the number of units per class.
type Counts [isa.NumFUClasses]int

// DefaultCounts is the Table 6 configuration.
func DefaultCounts() Counts {
	var c Counts
	c[isa.FUIntALU] = 6
	c[isa.FUIntMul] = 2
	c[isa.FUFloatAdd] = 4
	c[isa.FUFloatMul] = 2
	c[isa.FULoadStore] = 3
	return c
}

// Pool tracks per-class, per-cycle issue occupancy.
type Pool struct {
	sched [isa.NumFUClasses]Sched
}

// NewPool builds a pool with the given unit counts.
func NewPool(c Counts) *Pool {
	p := &Pool{}
	for k := 0; k < int(isa.NumFUClasses); k++ {
		if c[k] <= 0 {
			panic("fu: class with no units")
		}
		p.sched[k] = *NewSched(c[k])
	}
	return p
}

// Book reserves an issue slot of class c at the earliest cycle >=
// ready with spare capacity and returns that cycle.
func (p *Pool) Book(c isa.FUClass, ready int64) int64 {
	return p.sched[c].book(ready)
}

// Advance raises every class's floor to cycle (see Sched.Advance).
func (p *Pool) Advance(cycle int64) {
	for k := range p.sched {
		p.sched[k].Advance(cycle)
	}
}

// Reset clears all bookings and floors.
func (p *Pool) Reset() {
	for k := range p.sched {
		p.sched[k] = *NewSched(p.sched[k].cap)
	}
}

// Sched is a per-cycle capacity schedule usable on its own (the
// simulator books store-commit ports through one). Full cycles carry
// a forwarding pointer to the next candidate cycle; find follows and
// path-compresses the pointers (union-find), keeping bookings
// amortized near-constant even through long saturated stretches.
//
// The cycles from the floor lo onward live in a power-of-two ring over
// [lo, lo+len), which doubles on demand up to maxRing cycles. A
// booking further ahead than the ring reaches goes to a sparse
// overflow (far, farNext) and moves into the ring once the floor
// comes within reach of it. Memory is therefore bounded by maxRing
// plus the bookings in flight, however far ahead a long latency
// pushes them.
type Sched struct {
	cap  int
	lo   int64   // floor: no booking may ask for an earlier cycle
	cnt  []int   // bookings of ring cycle c at c&(len-1)
	next []int64 // forwarding pointer of ring cycle c, valid while c is full

	// Overflow for cycles at or past lo+len: bookings and forwarding
	// pointers keyed by cycle, allocated on first use.
	far     map[int64]int
	farNext map[int64]int64
}

const (
	// initRing is a new schedule's ring length; it doubles on demand.
	initRing = 64
	// maxRing caps the ring. The Table 6 machine keeps its bookings
	// within 2048 cycles of dispatch, so only idealized or scaled
	// long-latency machines reach the overflow.
	maxRing = 1 << 12
)

// NewSched builds a schedule accepting cap bookings per cycle.
func NewSched(cap int) *Sched {
	if cap <= 0 {
		panic("fu: non-positive schedule capacity")
	}
	return &Sched{cap: cap, cnt: make([]int, initRing), next: make([]int64, initRing)}
}

// Book reserves the earliest cycle >= ready with spare capacity.
func (s *Sched) Book(ready int64) int64 { return s.book(ready) }

// Advance raises the floor to cycle: the caller promises every later
// booking asks for a cycle at or above it, so the cycles below it are
// dropped. A cycle at or below the current floor is a no-op. Each
// cycle is dropped once, so advancing costs O(1) amortized per cycle.
func (s *Sched) Advance(cycle int64) {
	if cycle <= s.lo {
		return
	}
	end, mask := s.end(), int64(len(s.cnt)-1)
	for c := s.lo; c < min(cycle, end); c++ {
		s.cnt[c&mask] = 0
	}
	s.lo = cycle
	s.pull(end)
}

func (s *Sched) book(ready int64) int64 {
	if ready < s.lo {
		panic("fu: booking below the advanced floor")
	}
	c := s.find(ready)
	for c >= s.end() && c < s.lo+maxRing {
		s.grow()
	}
	if c >= s.end() {
		if s.far == nil {
			s.far, s.farNext = map[int64]int{}, map[int64]int64{}
		}
		s.far[c]++
		if s.far[c] >= s.cap {
			s.farNext[c] = c + 1
		}
		return c
	}
	i := c & int64(len(s.cnt)-1)
	s.cnt[i]++
	if s.cnt[i] >= s.cap {
		s.next[i] = c + 1
	}
	return c
}

// end is the first cycle past the ring.
func (s *Sched) end() int64 { return s.lo + int64(len(s.cnt)) }

// full reports whether cycle c (>= lo) has no spare capacity.
func (s *Sched) full(c int64) bool {
	if c < s.end() {
		return s.cnt[c&int64(len(s.cnt)-1)] >= s.cap
	}
	return s.far[c] >= s.cap
}

// link is the forwarding pointer of full cycle c; setLink replaces it.
func (s *Sched) link(c int64) int64 {
	if c < s.end() {
		return s.next[c&int64(len(s.cnt)-1)]
	}
	return s.farNext[c]
}

func (s *Sched) setLink(c, to int64) {
	if c < s.end() {
		s.next[c&int64(len(s.cnt)-1)] = to
	} else {
		s.farNext[c] = to
	}
}

// find returns the first cycle >= c with spare capacity.
func (s *Sched) find(c int64) int64 {
	root := c
	for s.full(root) {
		root = s.link(root)
	}
	// Path compression.
	for c != root {
		n := s.link(c)
		s.setLink(c, root)
		c = n
	}
	return root
}

// grow doubles the ring, re-placing the cycles [lo, lo+len).
func (s *Sched) grow() {
	n := int64(len(s.cnt))
	cnt, next := make([]int, 2*n), make([]int64, 2*n)
	for c := s.lo; c < s.lo+n; c++ {
		cnt[c&(2*n-1)], next[c&(2*n-1)] = s.cnt[c&(n-1)], s.next[c&(n-1)]
	}
	s.cnt, s.next = cnt, next
	s.pull(s.lo + n)
}

// pull moves the overflow cycles the ring now covers into it and
// drops those under the floor. from is the ring's previous end: no
// overflow cycle lies below it. Whichever is smaller, the newly
// covered span or the overflow, is walked.
func (s *Sched) pull(from int64) {
	if len(s.far) == 0 {
		return
	}
	to := s.end()
	if to-from <= int64(len(s.far)) {
		for c := from; c < to; c++ {
			s.take(c)
		}
		return
	}
	for c := range s.far {
		if c < to {
			s.take(c)
		}
	}
}

// take moves overflow cycle c (below the ring's end) into the ring, or
// drops it if it lies under the floor.
func (s *Sched) take(c int64) {
	k, ok := s.far[c]
	if !ok {
		return
	}
	nx := s.farNext[c]
	delete(s.far, c)
	delete(s.farNext, c)
	if c >= s.lo {
		i := c & int64(len(s.cnt)-1)
		s.cnt[i], s.next[i] = k, nx
	}
}
