package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}, {100, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50 || d.TailPct != 90 || d.Tail != 90 {
		t.Fatalf("summarize = %+v", d)
	}
	if xs[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
	if d := summarize([]float64{3, 1, 2}); d.TailPct != 0 || d.P50 != 2 {
		t.Fatalf("small sample = %+v, want median only", d)
	}
}
