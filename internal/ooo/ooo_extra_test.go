package ooo

import (
	"runtime"
	"testing"

	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/isa"
	"icost/internal/program"
	"icost/internal/trace"
	"icost/internal/workload"
)

// straightLine builds a trace of n identical straight-line ALU ops
// by looping a block (warmup-friendly); ops[i%len(ops)] chooses each
// body instruction.
func straightLine(t *testing.T, ops []isa.Inst, iters int) *trace.Trace {
	t.Helper()
	b := program.NewBuilder()
	b.Label("top")
	for _, in := range ops {
		b.Emit(in)
	}
	b.BranchToLabel(isa.OpJump, isa.NoReg, isa.NoReg, "top")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var insts []trace.DynInst
	for it := 0; it < iters; it++ {
		for i := 0; i < p.Len(); i++ {
			d := trace.DynInst{SIdx: int32(i), Target: p.PCOf(i) + isa.InstBytes}
			in := p.At(i)
			if in.Op == isa.OpJump {
				d.Taken = true
				d.Target = p.PCOf(0)
			}
			if in.Op.IsMem() {
				d.Addr = 0x10000000 + isa.Addr(it*64+i*8)
			}
			insts = append(insts, d)
		}
	}
	return &trace.Trace{Prog: p, Insts: insts, Name: "straight"}
}

func TestWarmupShrinksResult(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 9000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, DefaultConfig(), Options{Warmup: 4000, KeepGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Insts != 5000 || res.Graph.Len() != 5000 {
		t.Fatalf("measured %d insts, graph %d", res.Stats.Insts, res.Graph.Len())
	}
}

func TestWarmupReducesColdMisses(t *testing.T) {
	tr, err := workload.Load("gcc", 1, 40000)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Simulate(tr, DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(tr, DefaultConfig(), Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	coldRate := float64(cold.Stats.IL1Misses) / float64(cold.Stats.Insts)
	warmRate := float64(warm.Stats.IL1Misses) / float64(warm.Stats.Insts)
	if warmRate > coldRate {
		t.Fatalf("warmup raised icache miss rate: %.4f -> %.4f", coldRate, warmRate)
	}
}

func TestWarmupBoundsChecked(t *testing.T) {
	tr, err := workload.Load("gzip", 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 1000, 5000} {
		if _, err := Simulate(tr, DefaultConfig(), Options{Warmup: w}); err == nil {
			t.Errorf("warmup %d accepted", w)
		}
	}
}

func TestStoreCommitBandwidthContention(t *testing.T) {
	// A block of back-to-back independent stores must queue at the
	// store-commit ports; with StoreCommitBW=1 the commit rate is one
	// store per cycle regardless of the 6-wide commit.
	var ops []isa.Inst
	for i := 0; i < 8; i++ {
		ops = append(ops, isa.Inst{Op: isa.OpStore, Dst: isa.NoReg, Src1: 16, Src2: 17})
	}
	tr := straightLine(t, ops, 40)

	narrow := DefaultConfig()
	narrow.StoreCommitBW = 1
	rn, err := Simulate(tr, narrow, Options{KeepGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	wide := DefaultConfig()
	wide.StoreCommitBW = 6
	rw, err := Simulate(tr, wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Cycles <= rw.Cycles {
		t.Fatalf("narrow store ports not slower: %d vs %d", rn.Cycles, rw.Cycles)
	}
	// The contention is recorded on CC edges (and replays exactly —
	// checked internally by Simulate).
	var ccSum int64
	for i := 0; i < rn.Graph.Len(); i++ {
		ccSum += int64(rn.Graph.CCLat[i])
	}
	if ccSum == 0 {
		t.Fatal("no CC contention recorded")
	}
	// IdealBW removes it.
	fast := rn.Graph.ExecTime(depgraph.Ideal{Global: depgraph.IdealBW})
	if fast >= rn.Cycles {
		t.Fatal("bw idealization did not remove store contention")
	}
}

func TestFetchBreakLimitsTakenBranches(t *testing.T) {
	// A trace of nothing but taken branches: with MaxTakenPerCycle=1
	// dispatch is 1/cycle; with 2 it is 2/cycle.
	b := program.NewBuilder()
	b.Label("a")
	b.BranchToLabel(isa.OpJump, isa.NoReg, isa.NoReg, "b")
	b.Label("b")
	b.BranchToLabel(isa.OpJump, isa.NoReg, isa.NoReg, "a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var insts []trace.DynInst
	for i := 0; i < 4000; i++ {
		si := int32(i % 2)
		insts = append(insts, trace.DynInst{
			SIdx: si, Taken: true, Target: p.PCOf(int(1 - si)),
		})
	}
	tr := &trace.Trace{Prog: p, Insts: insts, Name: "takens"}

	one := DefaultConfig()
	one.MaxTakenPerCycle = 1
	r1, err := Simulate(tr, one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two := DefaultConfig()
	two.MaxTakenPerCycle = 2
	r2, err := Simulate(tr, two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles <= r2.Cycles {
		t.Fatalf("tighter fetch break not slower: %d vs %d", r1.Cycles, r2.Cycles)
	}
	// Rates: ~1 inst/cycle vs ~2 inst/cycle.
	if ipc := r1.IPC(); ipc > 1.1 {
		t.Fatalf("1-taken-per-cycle IPC %.2f", ipc)
	}
	if ipc := r2.IPC(); ipc < 1.5 {
		t.Fatalf("2-taken-per-cycle IPC %.2f", ipc)
	}
}

func TestGraphReplayUnderEveryIdealization(t *testing.T) {
	// The replay-consistency invariant must hold for every single
	// idealization flag, not just the ones the suite exercises.
	tr, err := workload.Load("parser", 1, 8000)
	if err != nil {
		t.Fatal(err)
	}
	for f := depgraph.Flags(0); f <= depgraph.AllFlags; f += 37 {
		if _, err := Simulate(tr, DefaultConfig(), Options{Ideal: f & depgraph.AllFlags}); err != nil {
			t.Fatalf("flags %v: %v", f&depgraph.AllFlags, err)
		}
	}
}

func TestPartialMissBecomesHitWhenLeaderIdealized(t *testing.T) {
	// Two loads to the same line, far enough apart in dataflow that
	// the second starts while the first's miss is outstanding.
	ops := []isa.Inst{
		{Op: isa.OpLoad, Dst: 1, Src1: 16, Src2: isa.NoReg},
		{Op: isa.OpIntShort, Dst: 2, Src1: 17, Src2: 18},
		{Op: isa.OpLoad, Dst: 3, Src1: 16, Src2: isa.NoReg},
	}
	b := program.NewBuilder()
	for _, in := range ops {
		b.Emit(in)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	insts := []trace.DynInst{
		{SIdx: 0, Addr: 0x10000000, Target: p.PCOf(1)},
		{SIdx: 1, Target: p.PCOf(2)},
		{SIdx: 2, Addr: 0x10000008, Target: p.PCOf(2) + isa.InstBytes},
	}
	tr := &trace.Trace{Prog: p, Insts: insts, Name: "partial"}
	res, err := Run(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartialMisses != 1 {
		t.Fatalf("partial misses %d, want 1", res.Stats.PartialMisses)
	}
	if res.Graph.PPLeader[2] != 0 {
		t.Fatalf("PP leader %d, want 0", res.Graph.PPLeader[2])
	}
	// The partial miss completes with the leader.
	if res.Times.P[2] != res.Times.P[0] {
		t.Fatalf("P[2]=%d != leader P[0]=%d", res.Times.P[2], res.Times.P[0])
	}
	// Idealizing dmiss collapses both.
	ideal := res.Graph.NodeTimes(depgraph.Ideal{Global: depgraph.IdealDMiss})
	if ideal.P[2] >= res.Times.P[0] {
		t.Fatal("dmiss idealization left the partial miss bound")
	}
}

func TestICacheLevelsRecorded(t *testing.T) {
	tr, err := workload.Load("gcc", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, DefaultConfig(), Options{KeepGraph: true, Warmup: 15000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < res.Graph.Len(); i++ {
		if res.Graph.Info[i].ILevel != cache.LevelL1 {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no icache misses in window; enlarge trace")
	}
}

func TestWrongPathPollutesICache(t *testing.T) {
	// With wrong-path fetch on, the icache sees extra traffic after
	// every mispredict; on a benchmark whose code footprint exceeds
	// the L1I, that changes the measured miss counts.
	tr, err := workload.Load("gcc", 1, 40000)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultConfig()
	wp := DefaultConfig()
	wp.ModelWrongPath = true
	a, err := Simulate(tr, plain, Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, wp, Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.IL1Misses == b.Stats.IL1Misses {
		t.Fatal("wrong-path modeling changed nothing on gcc")
	}
	// Architectural behaviour must be identical: same mispredicts,
	// same data misses.
	if a.Stats.Mispredicts != b.Stats.Mispredicts || a.Stats.DL1Misses != b.Stats.DL1Misses {
		t.Fatal("wrong-path fetch perturbed non-icache state")
	}
}

func TestWrongPathDeterministic(t *testing.T) {
	tr, err := workload.Load("bzip", 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ModelWrongPath = true
	a, err := Simulate(tr, cfg, Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, cfg, Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("wrong-path simulation not deterministic")
	}
}

func TestStoreToLoadDependence(t *testing.T) {
	// st [r17]; add; ld [r17] — same address: the load's second
	// producer must be the store (paper Fig 5b, PR "mem: D").
	ops := []isa.Inst{
		{Op: isa.OpStore, Dst: isa.NoReg, Src1: 1, Src2: 17},
		{Op: isa.OpIntShort, Dst: 2, Src1: 16, Src2: 16},
		{Op: isa.OpLoad, Dst: 3, Src1: 17, Src2: isa.NoReg},
	}
	b := program.NewBuilder()
	for _, in := range ops {
		b.Emit(in)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	insts := []trace.DynInst{
		{SIdx: 0, Addr: 0x10000100, Target: p.PCOf(1)},
		{SIdx: 1, Target: p.PCOf(2)},
		{SIdx: 2, Addr: 0x10000100, Target: p.PCOf(2) + isa.InstBytes},
	}
	tr := &trace.Trace{Prog: p, Insts: insts, Name: "fwd"}
	res, err := Run(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Prod2[2] != 0 {
		t.Fatalf("load's memory producer = %d, want 0 (the store)", res.Graph.Prod2[2])
	}
	if res.Stats.StoreForwards != 1 {
		t.Fatalf("StoreForwards = %d", res.Stats.StoreForwards)
	}
	// The load cannot complete before the store does.
	if res.Times.P[2] < res.Times.P[0] {
		t.Fatal("load completed before its producing store")
	}
	// A load to a different granule has no memory dependence.
	insts[2].Addr = 0x10000200
	res2, err := Run(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Graph.Prod2[2] != -1 {
		t.Fatalf("unrelated load got producer %d", res2.Graph.Prod2[2])
	}
}

func TestAliasLoadsProduceForwards(t *testing.T) {
	tr, err := workload.Load("perl", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, DefaultConfig(), Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StoreForwards == 0 {
		t.Fatal("no store-to-load dependences on perl (AliasFrac > 0)")
	}
}

func TestHugeLatencyAllocatesByInstructions(t *testing.T) {
	// A billion-cycle L1 hit latency pushes every FU booking a billion
	// cycles past dispatch. The FU schedules must hold the bookings,
	// not the cycle span, so the run allocates about what a normal
	// one does.
	tr, err := workload.Load("mcf", 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(cfg Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Simulate(tr, cfg, Options{Warmup: 1000}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := alloc(DefaultConfig())
	huge := alloc(DefaultConfig().WithDL1Latency(1 << 30))
	t.Logf("allocated %d bytes at dl1 latency 2^30, %d on the default machine", huge, base)
	if huge > 4*base+(8<<20) {
		t.Fatalf("dl1 latency 2^30 allocated %d bytes, default machine %d", huge, base)
	}
}
