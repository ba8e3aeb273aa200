package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
)

// benchSpec sizes sessions for benchmarking: big enough that a cold
// build visibly dominates, small enough for -benchtime=1x smoke runs.
func benchSpec(bench string) SessionSpec {
	return SessionSpec{Bench: bench, Seed: 7, TraceLen: 4000, Warmup: 2000}
}

var benchMix = []Query{
	{Op: OpCost, Cats: []string{"dmiss"}},
	{Op: OpICost, Cats: []string{"dmiss", "win"}},
	{Op: OpBreakdown, Focus: "dl1"},
	{Op: OpSlack},
}

// BenchmarkEngineThroughput measures queries/sec at 1, 4 and
// GOMAXPROCS workers, cold (build-and-query per iteration) vs warm
// (session and result cache hot). The warm/cold ratio is the
// acceptance criterion: a warm repeated query must be >= 10x faster
// than a cold build-and-query.
func BenchmarkEngineThroughput(b *testing.B) {
	ctx := context.Background()
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range workers {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("cold/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New(Config{Workers: w})
				if _, err := e.Query(ctx, Query{Session: benchSpec("mcf"), Op: OpBreakdown}); err != nil {
					b.Fatal(err)
				}
				e.Close()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		b.Run(fmt.Sprintf("warm/workers=%d", w), func(b *testing.B) {
			e := New(Config{Workers: w, QueueDepth: 1024})
			defer e.Close()
			for _, q := range benchMix {
				q.Session = benchSpec("mcf")
				if _, err := e.Query(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := benchMix[i%len(benchMix)]
					i++
					q.Session = benchSpec("mcf")
					if _, err := e.Query(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkRestoreSession measures the /restore decode path: one
// 30k-instruction whole-graph snapshot checksummed, decoded and
// replayed against its recorded cycles, without installing it.
func BenchmarkRestoreSession(b *testing.B) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	key, err := e.Warm(ctx, SessionSpec{Bench: "gzip"})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SnapshotSession(ctx, key, &snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readSnapshot(ctx, bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
