package main

import (
	"context"
	"time"

	"icost/internal/depgraph"
)

// layerTimes accumulates the direct-call timings of the traced replay. The
// replay is sequential, so no locking.
type layerTimes struct {
	// Session builds (workload generation + simulation + graph).
	buildMS                        []float64
	genNS, stallNS, simNS, waitNS  int64
	simInsts                       int64
	kernelGraphs                   int
	fwdNS, fwdInsts                int64
	bwdNS, bwdInsts                int64
	batchNS, batchLaneInsts        int64
	scaledNS, scaledLaneInsts      int64
	focusMS, matrixMS, sensMS      []float64
	sensLanes                      []float64
	refoldMS                       []float64
	foldNS, foldInsts, peakBytes   int64
	decodeNS, mergeNS, ingestBatch int64
	ingestBytes                    int64
}

// maxKernelGraphs bounds how many distinct graphs a pass probes with the
// walk kernels, so cold-build's replay stays in budget.
const maxKernelGraphs = 12

func (lt *layerTimes) addBuild(d time.Duration, insts, gen, stall, sim, wait int64) {
	lt.buildMS = append(lt.buildMS, ms(d))
	lt.genNS += gen
	lt.stallNS += stall
	lt.simNS += sim
	lt.waitNS += wait
	lt.simInsts += insts
}

func (lt *layerTimes) addFold(d time.Duration, lanes int, simInsts, foldInsts, gen, stall, sim, wait, fold, peak int64) {
	lt.genNS += gen
	lt.stallNS += stall
	lt.simNS += max(sim, 0)
	lt.waitNS += wait
	lt.simInsts += simInsts
	lt.peakBytes = max(lt.peakBytes, peak)
	// The fold rate and build time are those of the full subset-table fold
	// that builds a windowed session; sensitivity re-folds count as refolds.
	if lanes == 1<<depgraph.NumFlags {
		lt.foldNS += fold
		lt.foldInsts += foldInsts
		lt.buildMS = append(lt.buildMS, ms(d))
	}
}

// kernels times the depgraph walk kernels once each on g: one forward walk,
// one backward (slack) walk, a 16-lane binary batch and a 16-lane scaled
// batch.
func (lt *layerTimes) kernels(ctx context.Context, g *depgraph.Graph) error {
	if lt.kernelGraphs >= maxKernelGraphs {
		return nil
	}
	lt.kernelGraphs++
	n := int64(g.Len())
	t := time.Now()
	if _, err := g.ExecTimeCtx(ctx, depgraph.Ideal{}); err != nil {
		return err
	}
	lt.fwdNS += int64(time.Since(t))
	lt.fwdInsts += n

	t = time.Now()
	if _, err := g.SlacksCtx(ctx, depgraph.Ideal{}); err != nil {
		return err
	}
	lt.bwdNS += int64(time.Since(t))
	lt.bwdInsts += n

	binary := make([]depgraph.Ideal, 16)
	for i := range binary {
		binary[i] = depgraph.Ideal{Global: depgraph.Flags(i + 1)}
	}
	t = time.Now()
	if _, err := g.EvalBatch(ctx, binary); err != nil {
		return err
	}
	lt.batchNS += int64(time.Since(t))
	lt.batchLaneInsts += n * int64(len(binary))

	var scaled []depgraph.Ideal
	for b := 0; b < depgraph.NumFlags; b++ {
		f := depgraph.Flags(1) << b
		for _, a := range []float64{0.25, 0.75} {
			scaled = append(scaled, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, depgraph.AlphaOf(a))})
		}
	}
	t = time.Now()
	if _, err := g.EvalBatch(ctx, scaled); err != nil {
		return err
	}
	lt.scaledNS += int64(time.Since(t))
	lt.scaledLaneInsts += n * int64(len(scaled))
	return nil
}

func (lt *layerTimes) addSensitivity(start time.Time, lanes int) {
	lt.sensMS = append(lt.sensMS, ms(time.Since(start)))
	lt.sensLanes = append(lt.sensLanes, float64(lanes))
}

func (lt *layerTimes) addIngest(decode, merge time.Duration, batches, bytes int) {
	lt.decodeNS += int64(decode)
	lt.mergeNS += int64(merge)
	lt.ingestBatch += int64(batches)
	lt.ingestBytes += int64(bytes)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
