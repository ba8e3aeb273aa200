package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one logical request's timing, as offsets from its phase start.
// In an open loop Due is the schedule's send time; in a closed loop it
// equals Sent.
type sample struct {
	I               int // request index
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is the request's time from when it was due, so a stall that
// delays later sends is charged to them.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// late is how long after its due time the generator sent the request.
func (s sample) late() time.Duration { return max(s.Sent-s.Due, 0) }

// arrivals returns the absolute due offsets of a Poisson stream at rate
// requests per second over d: exponential gaps drawn from rng, summed from
// the phase start, so one late send does not shift the rest.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// runOpen sends request i at due[i] (an ascending schedule) through at most
// conns concurrent senders and returns one sample per request. A request
// whose sender is still busy when it falls due goes out late and its
// latency still counts from due[i].
func runOpen(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int) bool) []sample {
	out := make([]sample, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(start)
				ok := do(ctx, i)
				out[i] = sample{I: i, Due: due[i], Sent: sent, Done: time.Since(start), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed runs callers closed-loop callers for d: each sends its next
// request only after the previous reply. It returns the samples in
// completion order and the time from the start to the last completion.
func runClosed(ctx context.Context, callers int, d time.Duration, do func(ctx context.Context, i int) bool) ([]sample, time.Duration) {
	start := time.Now()
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		last time.Duration
		wg   sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				i := int(next.Add(1) - 1)
				ok := do(ctx, i)
				s := sample{I: i, Due: sent, Sent: sent, Done: time.Since(start), OK: ok}
				mu.Lock()
				out = append(out, s)
				last = max(last, s.Done)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, last
}

// indexRNG is the generator for item i of input stream stream: inputs are a
// pure function of (seed, stream, i), whatever order callers reach them in.
func indexRNG(seed uint64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)<<40|uint64(i)))
}
