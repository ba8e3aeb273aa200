package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"icost/internal/router"
)

// tracedRun makes one pass at GOMAXPROCS=nproc and one at GOMAXPROCS=1,
// each on fresh services for d/2. Every other request of a pass is traced,
// so the untraced half is the interleaved reference for tracing overhead.
func tracedRun(ctx context.Context, w *workloadDef, r *runState, d time.Duration, nproc int, o options, rep *report) (map[string]float64, int, int, error) {
	defer runtime.GOMAXPROCS(nproc)
	out := map[string]float64{}
	rep.Phases = map[string]any{}
	attempted, failed := 0, 0
	for k, procs := range []int{nproc, 1} {
		runtime.GOMAXPROCS(procs)
		m, a, f, err := tracedPass(ctx, w, r, d/2, procs, nproc, o, rep)
		if err != nil {
			return nil, 0, 0, err
		}
		if k == 0 {
			out["trace.overhead_frac"] = m["trace.overhead_frac"]
			out["fleet.ingest_p50_ms"] = m["fleet.ingest_p50_ms"]
			out["fleet.ingest_p90_ms"] = m["fleet.ingest_p90_ms"]
		}
		suffix := ""
		if k > 0 {
			suffix = p1Suffix
		}
		for _, def := range perLayerBase {
			out[def.Name+suffix] = m[def.Name]
		}
		attempted += a
		failed += f
	}
	return out, attempted, failed, nil
}

func tracedPass(ctx context.Context, w *workloadDef, r *runState, d time.Duration, procs, nproc int, o options, rep *report) (map[string]float64, int, int, error) {
	tr := newTracer()
	runtime.GC()
	// The client keeps nproc connections at either GOMAXPROCS.
	c, err := startCluster(w.shards, w.routed, nproc, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.close()
	if err := w.setup(ctx, r, c, 0); err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}

	// Open loops run at procs/nproc of their rate, so each pass loads the
	// cores it has alike.
	rateScale := float64(procs) / float64(nproc)
	e0, f0 := c.engineTotals(), c.fleetTotals()
	var rt0, rt1 router.Snapshot
	if c.rt != nil {
		rt0 = c.rt.Metrics()
	}
	runtime.GC()
	p := runPhase(ctx, w, r, c, d, rateScale, streams{streamTraced, streamTracedWrites}, nproc)
	e1, f1 := c.engineTotals(), c.fleetTotals()
	if c.rt != nil {
		rt1 = c.rt.Metrics()
	}
	if ctx.Err() != nil {
		return nil, 0, 0, fmt.Errorf("run exceeded %v", runTimeout)
	}

	orc := &oracle{timed: true}
	var traced []*reqRecord
	for _, rec := range p.recs {
		if rec.traced {
			traced = append(traced, rec)
		}
	}
	// The traced half is replayed with timing, one call at a time; the
	// untraced half is only checked.
	failed := verify(ctx, w, orc, traced, 1)
	failed += verify(ctx, w, &oracle{}, untracedOf(p.recs), nproc)
	rep.Sessions = append(rep.Sessions, orc.sessions...)
	rep.Phases[fmt.Sprintf("procs%d", procs)] = phaseReport(w, p, d, rateScale)

	path := spansPath(o, procs)
	if err := tr.writeJSONL(path); err != nil {
		return nil, 0, 0, fmt.Errorf("writing spans: %w", err)
	}
	rep.SpansFile = append(rep.SpansFile, path)

	out := map[string]float64{}
	spanMetrics(traced, tr.snapshot(), out)
	libraryMetrics(&orc.lt, out)

	q := float64(e1.CacheHitsTotal - e0.CacheHitsTotal + e1.CacheMissesTotal - e0.CacheMissesTotal)
	out["engine.result_cache_hit_ratio"] = ratio(float64(e1.CacheHitsTotal-e0.CacheHitsTotal), q)
	out["engine.queue_rejects"] = float64(e1.QueueRejectsTotal - e0.QueueRejectsTotal)
	out["engine.sessions_built"] = float64(e1.SessionsBuiltTotal - e0.SessionsBuiltTotal)
	out["engine.sessions_evicted"] = float64(e1.SessionsEvictedTotal - e0.SessionsEvictedTotal)
	out["depgraph.lanes_per_batch"] = ratio(float64(e1.BatchLanesTotal-e0.BatchLanesTotal), float64(e1.BatchesTotal-e0.BatchesTotal))

	hedges := float64(rt1.HedgesLaunchedTotal - rt0.HedgesLaunchedTotal)
	out["router.hedges_launched"] = hedges
	out["router.hedge_win_ratio"] = ratio(float64(rt1.HedgesWonTotal-rt0.HedgesWonTotal), hedges)
	// Replication happens during set-up warm-up and whenever a session
	// turns hot, so these count from service start.
	out["router.replications"] = float64(rt1.ReplicationsTotal)
	out["router.replication_errors"] = float64(rt1.ReplicationErrorsTotal)

	rejects := f1.IngestErrorsTotal - f0.IngestErrorsTotal
	for _, rec := range p.recs {
		if rec.req.write && !rec.ok {
			rejects++
		}
	}
	out["fleet.ingest_rejects"] = float64(rejects)
	out["loadgen.late_ms_p99"] = percentile(sortedCopy(p.lateMS()), 99)

	isTraced := func(r *reqRecord) bool { return r.traced && !r.req.write }
	isPlain := func(r *reqRecord) bool { return !r.traced && !r.req.write }
	out["trace.overhead_frac"] = ratio(median(p.latencies(isTraced)), median(p.latencies(isPlain))) - 1
	ing := sortedCopy(p.latencies(func(r *reqRecord) bool { return !r.traced && r.req.write }))
	out["fleet.ingest_p50_ms"] = percentile(ing, 50)
	out["fleet.ingest_p90_ms"] = percentile(ing, 90)
	return out, len(p.recs), failed, nil
}

func untracedOf(recs []*reqRecord) []*reqRecord {
	var out []*reqRecord
	for _, rec := range recs {
		if !rec.traced {
			out = append(out, rec)
		}
	}
	return out
}

// spanMetrics derives the service layers' self times from one pass's spans.
// A layer's self time is its span minus what its child spans cover; the
// engine's is Response.Elapsed minus the direct library time of the same
// work; what no server-side span covers is the residual.
func spanMetrics(traced []*reqRecord, spans []span, out map[string]float64) {
	calls := groupByReq(spans)
	var residual, client int64
	var routerSelf, fwd, daemonSelf, engineSelf []float64
	var respBytes, respN float64
	for _, rec := range traced {
		for _, cr := range rec.calls {
			cs := calls[cr.r.span]
			if cs == nil {
				continue
			}
			for _, cl := range cs.named(spanClient) {
				residual += selfTime(cl, cs.children[cl.ID])
				client += cl.dur()
			}
			for _, rs := range cs.named(spanRouter) {
				routerSelf = append(routerSelf, usNS(selfTime(rs, cs.children[rs.ID])))
			}
			for _, f := range cs.named(spanForward) {
				fwd = append(fwd, usNS(f.dur()))
			}
			if cr.c.q == nil || !cr.ok {
				continue
			}
			engineSelf = append(engineSelf, ms(cr.r.elapsed)-cr.libMS)
			if sh := cs.named(spanShard); len(sh) == 1 {
				daemonSelf = append(daemonSelf, usNS(sh[0].dur()-int64(cr.r.elapsed)))
				respBytes += float64(sh[0].Bytes)
				respN++
			}
		}
	}
	es, fs := sortedCopy(engineSelf), sortedCopy(fwd)
	out["engine.self_ms_p50"] = percentile(es, 50)
	out["engine.self_ms_p99"] = percentile(es, 99)
	out["daemon.self_us_p50"] = median(daemonSelf)
	out["daemon.resp_bytes_mean"] = ratio(respBytes, respN)
	out["router.self_us_p50"] = median(routerSelf)
	out["router.forward_us_p50"] = percentile(fs, 50)
	out["router.forward_us_p99"] = percentile(fs, 99)
	out["trace.residual_frac"] = ratio(float64(residual), float64(client))
}

// libraryMetrics reports the direct-call timings of the replay.
func libraryMetrics(lt *layerTimes, out map[string]float64) {
	out["workload.gen_ns_per_inst"] = ratio(float64(lt.genNS), float64(lt.simInsts))
	out["workload.gen_stall_frac"] = ratio(float64(lt.stallNS), float64(lt.genNS+lt.stallNS))
	out["ooo.sim_ns_per_inst"] = ratio(float64(lt.simNS), float64(lt.simInsts))
	out["ooo.sim_wait_frac"] = ratio(float64(lt.waitNS), float64(lt.simNS+lt.waitNS))
	out["depgraph.forward_ns_per_inst"] = ratio(float64(lt.fwdNS), float64(lt.fwdInsts))
	out["depgraph.backward_ns_per_inst"] = ratio(float64(lt.bwdNS), float64(lt.bwdInsts))
	out["depgraph.batch_ns_per_lane_inst"] = ratio(float64(lt.batchNS), float64(lt.batchLaneInsts))
	out["depgraph.scaled_ns_per_lane_inst"] = ratio(float64(lt.scaledNS), float64(lt.scaledLaneInsts))
	out["cost.sensitivity_ms"] = median(lt.sensMS)
	out["cost.lanes_per_query"] = mean(lt.sensLanes)
	out["breakdown.matrix_ms"] = median(lt.matrixMS)
	out["breakdown.focus_ms"] = median(lt.focusMS)
	out["window.fold_ns_per_inst"] = ratio(float64(lt.foldNS), float64(lt.foldInsts))
	out["window.refold_ms"] = median(lt.refoldMS)
	out["window.peak_bytes"] = float64(lt.peakBytes)
	out["engine.build_ms_p50"] = median(lt.buildMS)
	out["fleet.decode_us_per_batch"] = ratio(float64(lt.decodeNS)/1e3, float64(lt.ingestBatch))
	out["fleet.merge_us_per_batch"] = ratio(float64(lt.mergeNS)/1e3, float64(lt.ingestBatch))
	out["fleet.batch_bytes"] = ratio(float64(lt.ingestBytes), float64(lt.ingestBatch))
}

func usNS(ns int64) float64 { return float64(ns) / 1e3 }
