package main

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"
)

func TestArrivalsAbsoluteAndSeeded(t *testing.T) {
	a := arrivals(rand.New(rand.NewPCG(1, 2)), 1000, 2*time.Second)
	b := arrivals(rand.New(rand.NewPCG(1, 2)), 1000, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals at 1000/s over 2s", n)
	}
	if a[len(a)-1] >= 2*time.Second {
		t.Fatalf("arrival past the phase end: %v", a[len(a)-1])
	}
}

func TestSampleAccountingFromDue(t *testing.T) {
	s := sample{Due: 10 * time.Millisecond, Sent: 25 * time.Millisecond, Done: 30 * time.Millisecond}
	if s.latency() != 20*time.Millisecond {
		t.Fatalf("latency = %v, want 20ms counted from due", s.latency())
	}
	if s.late() != 15*time.Millisecond {
		t.Fatalf("late = %v, want 15ms", s.late())
	}
	early := sample{Due: 10 * time.Millisecond, Sent: 9 * time.Millisecond, Done: 12 * time.Millisecond}
	if early.late() != 0 {
		t.Fatalf("early send reported late by %v", early.late())
	}
}

// TestRunOpenChargesStallToLaterRequests drives one sender whose requests
// take longer than the gaps between them: each later request goes out late,
// and its latency includes the wait behind the earlier ones.
func TestRunOpenChargesStallToLaterRequests(t *testing.T) {
	const work = 20 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	got := runOpen(context.Background(), due, 1, func(context.Context, int) bool {
		time.Sleep(work)
		return true
	})
	for i, s := range got {
		if !s.OK || s.Due != due[i] {
			t.Fatalf("sample %d = %+v", i, s)
		}
		wantLat := time.Duration(i+1)*work - due[i]
		if s.latency() < wantLat {
			t.Errorf("request %d latency %v, want >= %v", i, s.latency(), wantLat)
		}
		wantLate := time.Duration(i)*work - due[i]
		if s.late() < wantLate {
			t.Errorf("request %d late %v, want >= %v", i, s.late(), wantLate)
		}
	}
}

func TestRunClosedStopsAtDeadline(t *testing.T) {
	samples, last := runClosed(context.Background(), 2, 30*time.Millisecond, func(context.Context, int) bool {
		time.Sleep(5 * time.Millisecond)
		return true
	})
	if len(samples) < 6 || len(samples) > 16 {
		t.Fatalf("%d completions from 2 callers in 30ms of 5ms requests", len(samples))
	}
	for _, s := range samples {
		if s.Due != s.Sent || s.Sent >= 30*time.Millisecond || s.Done > last {
			t.Fatalf("bad closed-loop sample %+v (last %v)", s, last)
		}
	}
}

func TestIndexRNGIsPerItem(t *testing.T) {
	if indexRNG(5, 1, 3).Uint64() != indexRNG(5, 1, 3).Uint64() {
		t.Fatal("same (seed, stream, i) gave different draws")
	}
	if indexRNG(5, 1, 3).Uint64() == indexRNG(5, 2, 3).Uint64() {
		t.Fatal("streams collide")
	}
}
