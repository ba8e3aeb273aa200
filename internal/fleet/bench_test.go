package fleet

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"icost/internal/profiler"
)

// BenchmarkFleetIngest measures the online merge path: one batch
// staged, byte-accounted, and committed into a live aggregate.
func BenchmarkFleetIngest(b *testing.B) {
	ctx := context.Background()
	s := hostBatch(b, "gzip", 42, 7)
	a := NewAggregator(testAggConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: fmt.Sprintf("host-%03d", i%64)}
		if err := a.Ingest(ctx, h, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetQueryMemoized measures the dashboard steady state:
// the aggregate generation is stable, so every query is a memo hit.
func BenchmarkFleetQueryMemoized(b *testing.B) {
	ctx := context.Background()
	a := NewAggregator(testAggConfig())
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h0"}
	for seed := uint64(7); seed < 10; seed++ {
		if err := a.Ingest(ctx, h, hostBatch(b, "gzip", 42, seed)); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Binary: "gzip", Seed: 42, Group: "prod", Op: OpBreakdown}
	if _, err := a.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := a.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Memoized {
			b.Fatal("expected a memo hit")
		}
	}
}

// BenchmarkFleetQueryCold measures a full estimate build — fragment
// reconstruction and analysis over the merged pool — by wiping the
// memo between iterations.
func BenchmarkFleetQueryCold(b *testing.B) {
	ctx := context.Background()
	a := NewAggregator(testAggConfig())
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h0"}
	for seed := uint64(7); seed < 10; seed++ {
		if err := a.Ingest(ctx, h, hostBatch(b, "gzip", 42, seed)); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Binary: "gzip", Seed: 42, Group: "prod", Op: OpBreakdown}
	agg := a.lookup(Key{Binary: "gzip", Seed: 42, Group: "prod"}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agg.memoMu.Lock()
		clear(agg.memo)
		agg.memoMu.Unlock()
		b.StartTimer()
		r, err := a.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if r.Memoized {
			b.Fatal("memo should have been wiped")
		}
	}
}

// BenchmarkReadStream measures the /ingest decode path alone: a
// four-batch stream framed, decoded and checked canonical, no merge.
func BenchmarkReadStream(b *testing.B) {
	var buf bytes.Buffer
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h0"}
	batches := []*profiler.Samples{
		hostBatch(b, "gzip", 42, 7), hostBatch(b, "gzip", 42, 8),
		hostBatch(b, "gzip", 42, 9), hostBatch(b, "gzip", 42, 10),
	}
	if err := WriteStream(&buf, h, batches); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := ReadStream(bytes.NewReader(buf.Bytes()), drop); err != nil || n != len(batches) {
			b.Fatalf("decoded %d batches: %v", n, err)
		}
	}
}
