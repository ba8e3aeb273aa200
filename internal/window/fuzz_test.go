package window

import (
	"context"
	"math/bits"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// FuzzWindowFold fuzzes the windowed fold's boundary-edge carry: for
// arbitrary window sizes (including pathological ones like 1, sizes
// that never divide the trace, and sizes straddling the carry depth),
// trace lengths, warmups and idealization masks, the windowed
// pipeline must reproduce the whole-graph evaluation bit for bit. Any
// mishandled cross-window reference — a clamp that was actually
// binding, a ring slot read after reuse, a mispredict gate lost at a
// block's first instruction — shows up as a divergence here. One
// lane scales win, bw and dmiss by fuzzed α, so the parametric edge
// gates and effective windows are fuzzed too.
func FuzzWindowFold(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(40), uint8(0), uint8(3), uint32(0))
	f.Add(uint64(2), uint16(1), uint16(200), uint8(0xff), uint8(0), uint32(0x01_00_80))
	f.Add(uint64(3), uint16(1500), uint16(977), uint8(0x24), uint8(77), uint32(0xff_40_01))
	f.Add(uint64(4), uint16(63), uint16(1280), uint8(0x81), uint8(200), uint32(0x11_22_33))
	f.Fuzz(func(t *testing.T, seed uint64, winSel, lenSel uint16, laneMask, warmSel uint8, alphaSel uint32) {
		names := workload.Names()
		bench := names[seed%uint64(len(names))]
		req := Request{
			Bench: bench,
			Seed:  seed % 5, // bounded so workload.Cached reuses profiles
			// 200..2247 timed instructions, windows 1..2048: covers
			// window ≥ trace, window 1, and everything between.
			TraceLen:    200 + int(lenSel)%2048,
			Warmup:      int(warmSel) % 128,
			WindowInsts: 1 + int(winSel)%2048,
			Sim:         ooo.DefaultConfig(),
		}
		lanes := []depgraph.Ideal{
			{},
			{Global: depgraph.Flags(laneMask) & depgraph.AllFlags},
			{Global: ^depgraph.Flags(laneMask) & depgraph.AllFlags},
			{Global: depgraph.IdealWindow}, // maximum carry reach
		}
		// One α per scaled category, each in [0, AlphaOne]: a byte of
		// alphaSel apiece plus its shared top bit, so both endpoints
		// and the interior occur. Other laneMask categories ride
		// along at α=0.
		var s depgraph.ScaleVec
		scaled := depgraph.Flags(laneMask) & depgraph.AllFlags
		for k, fl := range []depgraph.Flags{depgraph.IdealWindow, depgraph.IdealBW, depgraph.IdealDMiss} {
			scaled |= fl
			s[bits.TrailingZeros16(uint16(fl))] = depgraph.Alpha(alphaSel>>(8*k)&0xff) + depgraph.Alpha(alphaSel>>24&1)
		}
		lanes = append(lanes, depgraph.Ideal{Global: scaled, Scale: s})
		want, full := fullTimesIdeals(t, req, lanes)
		res, err := AnalyzeIdeals(context.Background(), req, lanes)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		if res.Cycles != full.Cycles {
			t.Fatalf("%s seed %d win %d: cycles %d != %d", bench, req.Seed, req.WindowInsts, res.Cycles, full.Cycles)
		}
		for k := range lanes {
			if res.Times[k] != want[k] {
				t.Fatalf("%s seed %d win %d len %d warm %d lane %v scale %v: windowed %d != whole-graph %d",
					bench, req.Seed, req.WindowInsts, req.TraceLen, req.Warmup, lanes[k].Global, lanes[k].Scale, res.Times[k], want[k])
			}
		}
	})
}
