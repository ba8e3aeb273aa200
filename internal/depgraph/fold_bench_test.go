package depgraph_test

// BenchmarkWindowFold times the windowed fold kernel alone
// (make bench-fold): one recorded stream of Window blocks is folded
// under the lane shapes the service runs — one lane, the 2-lane fleet
// calibration (base lane plus one category), the 5-lane sensitivity
// re-fold (base lane plus 2 categories × 2 α), a 64-lane mixed-α set
// and the 256-subset breakdown table.

import (
	"context"
	"sync"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

const (
	foldInsts   = 40000
	foldWarmup  = 5000
	foldWinSize = 4096
)

var (
	foldOnce   sync.Once
	foldStream []depgraph.Window
)

// recordedStream simulates (once) a windowed mcf run and keeps a deep
// copy of every emitted block, so the benchmark times the fold only.
func recordedStream(tb testing.TB) []depgraph.Window {
	tb.Helper()
	foldOnce.Do(func() {
		w, err := workload.Cached("mcf", 11)
		if err != nil {
			return
		}
		ctx := context.Background()
		st, err := w.ExecuteStream(ctx, foldWarmup+foldInsts, 12, 0)
		if err != nil {
			return
		}
		var blocks []depgraph.Window
		_, err = ooo.SimulateWindowed(ctx, st, ooo.DefaultConfig(), ooo.Options{Warmup: foldWarmup}, foldWinSize,
			func(win *depgraph.Window) error {
				var c depgraph.Window
				c.Resize(win.Lo, win.N)
				copy(c.Info, win.Info)
				copy(c.DDBreak, win.DDBreak)
				copy(c.RELat, win.RELat)
				copy(c.CCLat, win.CCLat)
				copy(c.Prod1, win.Prod1)
				copy(c.Prod2, win.Prod2)
				copy(c.PPLeader, win.PPLeader)
				copy(c.MispPrev, win.MispPrev)
				blocks = append(blocks, c)
				return nil
			})
		if err == nil {
			foldStream = blocks
		}
	})
	if foldStream == nil {
		tb.Fatal("recording the benchmark stream failed")
	}
	return foldStream
}

// mixedAlphaLanes is a deterministic n-lane set of parametric
// idealizations: varied category masks, each category at its own α,
// so win, bw and dmiss lanes sit strictly between the endpoints.
func mixedAlphaLanes(n int) []depgraph.Ideal {
	ids := make([]depgraph.Ideal, n)
	for k := range ids {
		var s depgraph.ScaleVec
		for b := range s {
			s[b] = depgraph.Alpha((k*67 + b*29) % int(depgraph.AlphaOne+1))
		}
		ids[k] = depgraph.Ideal{Global: depgraph.Flags(k*37+11) & depgraph.AllFlags, Scale: s}
	}
	ids[0] = depgraph.Ideal{}
	return ids
}

func BenchmarkWindowFold(b *testing.B) {
	stream := recordedStream(b)
	cfg := ooo.DefaultConfig().Graph
	subsets := make([]depgraph.Ideal, 1<<depgraph.NumFlags)
	for k := range subsets {
		subsets[k] = depgraph.Ideal{Global: depgraph.Flags(k)}
	}
	sens := []depgraph.Ideal{{}}
	for _, f := range []depgraph.Flags{depgraph.IdealDMiss, depgraph.IdealWindow} {
		for _, a := range []depgraph.Alpha{depgraph.AlphaOf(0.25), depgraph.AlphaOf(0.75)} {
			sens = append(sens, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, a)})
		}
	}
	for _, c := range []struct {
		name string
		ids  []depgraph.Ideal
	}{
		{"lanes=1", subsets[:1]},
		{"lanes=2", []depgraph.Ideal{{}, {Global: depgraph.IdealDMiss}}},
		{"lanes=5", sens},
		{"lanes=64", mixedAlphaLanes(64)},
		{"lanes=256", subsets},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var insts int64
			for i := 0; i < b.N; i++ {
				we, err := depgraph.NewWindowEvalIdeals(cfg, c.ids)
				if err != nil {
					b.Fatal(err)
				}
				for k := range stream {
					if err := we.Feed(&stream[k]); err != nil {
						b.Fatal(err)
					}
				}
				insts += we.Insts()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
