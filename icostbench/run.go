package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"icost/internal/engine"
	"icost/internal/fleet"
)

// callRecord is one call's reply plus what checking it found.
type callRecord struct {
	c     *call
	r     reply
	ok    bool    // served answer matched the direct computation
	libMS float64 // direct library time of the same work (timed replay)
}

// reqRecord is one logical request.
type reqRecord struct {
	req    *request
	calls  []*callRecord
	s      sample
	ok     bool
	traced bool
}

// execRequest sends a request's calls in order, stopping at a failure. On a
// cluster with a tracer, half the requests are traced, chosen by a hash of
// i so that the choice does not line up with the workloads' rotations.
func execRequest(ctx context.Context, c *cluster, req *request, i int) *reqRecord {
	rec := &reqRecord{req: req, ok: true, traced: c.tr != nil && splitmix(uint64(i))&1 == 0}
	for k := range req.calls {
		cl := &req.calls[k]
		ct := "application/json"
		if cl.ing != nil {
			ct = "application/octet-stream"
		}
		r := c.post(ctx, cl.path, ct, cl.body, rec.traced)
		if cl.ing != nil {
			cl.body = nil // sent; the replay re-encodes it
		}
		rec.calls = append(rec.calls, &callRecord{c: cl, r: r})
		if !r.ok() {
			rec.ok = false
			return rec
		}
	}
	return rec
}

// splitmix is the SplitMix64 finalizer: a well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// phase is the records of one timed phase.
type phase struct {
	recs []*reqRecord
	// elapsed is the time from the phase start to the last completion.
	elapsed time.Duration
}

// scheduleIdx is the index whose generator draws a stream's arrival
// schedule; request indices stay far below it.
const scheduleIdx = 1 << 39

// streams picks the input streams of one pass, so passes over the same
// services never repeat a request.
type streams struct{ reads, writes int }

// runOpenPhase runs the workload's open loop for d at rateScale times its
// rates through conns connections.
func runOpenPhase(ctx context.Context, w *workloadDef, r *runState, c *cluster, d time.Duration, rateScale float64, st streams, conns int) *phase {
	type item struct {
		at    time.Duration
		write bool
		idx   int
	}
	var items []item
	for i, at := range arrivals(indexRNG(r.seed, st.reads, scheduleIdx), w.readRate*rateScale, d) {
		items = append(items, item{at, false, i})
	}
	if w.writeRate > 0 {
		for i, at := range arrivals(indexRNG(r.seed, st.writes, scheduleIdx), w.writeRate*rateScale, d) {
			items = append(items, item{at, true, i})
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })
	due := make([]time.Duration, len(items))
	for i, it := range items {
		due[i] = it.at
	}
	recs := make([]*reqRecord, len(items))
	samples := runOpen(ctx, due, conns, func(ctx context.Context, i int) bool {
		it := items[i]
		stream := st.reads
		if it.write {
			stream = st.writes
		}
		recs[i] = execRequest(ctx, c, w.gen(r, stream, it.idx, it.write), i)
		return recs[i].ok
	})
	p := &phase{}
	for i, s := range samples {
		if recs[i] == nil { // canceled before it was sent
			continue
		}
		recs[i].s = s
		p.recs = append(p.recs, recs[i])
		p.elapsed = max(p.elapsed, s.Done)
	}
	return p
}

// runClosedPhase runs callers closed-loop callers for d. In a mix with
// writes, every writeEvery-th request is a write.
func runClosedPhase(ctx context.Context, w *workloadDef, r *runState, c *cluster, d time.Duration, callers int, st streams) *phase {
	writeEvery := 0
	if w.writeRate > 0 {
		writeEvery = int(w.readRate/w.writeRate+0.5) + 1
	}
	var mu sync.Mutex
	recs := map[int]*reqRecord{}
	samples, last := runClosed(ctx, callers, d, func(ctx context.Context, i int) bool {
		var req *request
		if writeEvery > 0 && i%writeEvery == writeEvery-1 {
			req = w.gen(r, st.writes, i/writeEvery, true)
		} else {
			req = w.gen(r, st.reads, i, false)
		}
		rec := execRequest(ctx, c, req, i)
		mu.Lock()
		recs[i] = rec
		mu.Unlock()
		return rec.ok
	})
	p := &phase{elapsed: last}
	for _, s := range samples {
		recs[s.I].s = s
		p.recs = append(p.recs, recs[s.I])
	}
	return p
}

// runPhase runs the workload's timed phase: its open loop, or conns
// closed-loop callers.
func runPhase(ctx context.Context, w *workloadDef, r *runState, c *cluster, d time.Duration, rateScale float64, st streams, conns int) *phase {
	if w.readRate > 0 {
		return runOpenPhase(ctx, w, r, c, d, rateScale, st, conns)
	}
	return runClosedPhase(ctx, w, r, c, d, conns, st)
}

// verify checks every reply of recs against direct library calls. Calls
// are grouped by session so each reference session is built once; groups
// run on workers goroutines (1 for the timed replay, whose timings must not
// contend). It returns the number of failed requests.
func verify(ctx context.Context, w *workloadDef, o *oracle, recs []*reqRecord, workers int) int {
	type group struct {
		spec  engine.SessionSpec
		calls []*callRecord
	}
	var groups []*group
	byKey := map[string]*group{}
	var ingests []*callRecord
	for _, rec := range recs {
		for _, cr := range rec.calls {
			if !cr.r.ok() {
				continue
			}
			if cr.c.ing != nil {
				ingests = append(ingests, cr)
				continue
			}
			key, err := cr.c.q.Session.Key()
			if err != nil {
				continue // the engine would have refused it; counted as failed
			}
			g := byKey[key]
			if g == nil {
				g = &group{spec: cr.c.q.Session}
				byKey[key] = g
				groups = append(groups, g)
			}
			g.calls = append(g.calls, cr)
		}
	}
	check := func(g *group) {
		start := time.Now()
		rs, err := o.build(ctx, g.spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "icostbench: reference build:", err)
			return
		}
		defer rs.release()
		buildMS := ms(time.Since(start))
		if o.timed && rs.res != nil {
			if err := o.lt.kernels(ctx, rs.res.Graph); err != nil {
				fmt.Fprintln(os.Stderr, "icostbench: kernel probe:", err)
			}
		}
		type memo struct {
			want  *engine.Response
			libMS float64
		}
		answers := map[string]memo{}
		for k, cr := range g.calls {
			m, seen := answers[string(cr.c.body)]
			if !seen {
				t := time.Now()
				want, err := o.answer(ctx, rs, *cr.c.q)
				if err != nil {
					fmt.Fprintln(os.Stderr, "icostbench: reference answer:", err)
					continue
				}
				m = memo{want, ms(time.Since(t))}
				if k == 0 && w.buildsInRequests {
					m.libMS += buildMS
				}
				answers[string(cr.c.body)] = m
			}
			diff := sameAnswer(cr.r.body, m.want)
			cr.ok = diff == ""
			if !cr.r.cached {
				cr.libMS = m.libMS
			}
			if diff != "" {
				fmt.Fprintf(os.Stderr, "icostbench: MISMATCH %s on %s seed %d: %s\n", cr.c.q.Op, g.spec.Bench, g.spec.Seed, diff)
			}
		}
	}
	work := make(chan *group)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				check(g)
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()

	agg := fleet.NewAggregator(fleet.Config{MaxBytes: deployFleetBytes})
	for _, cr := range ingests {
		cr.ok = o.checkIngest(ctx, cr.c.ing, cr.r.body, agg)
		if !cr.ok {
			fmt.Fprintln(os.Stderr, "icostbench: MISMATCH ingest reply for", cr.c.ing.h.Key())
		}
	}

	failed := 0
	for _, rec := range recs {
		ok := len(rec.calls) == len(rec.req.calls)
		for _, cr := range rec.calls {
			ok = ok && cr.ok
		}
		rec.ok = ok
		if !ok {
			failed++
		}
	}
	return failed
}

// latencies returns the latencies in ms of the phase's successful
// requests that keep selects.
func (p *phase) latencies(keep func(*reqRecord) bool) []float64 {
	var out []float64
	for _, rec := range p.recs {
		if rec.ok && keep(rec) {
			out = append(out, ms(rec.s.latency()))
		}
	}
	return out
}

// Request selectors for latencies.
func reads(r *reqRecord) bool  { return !r.req.write }
func writes(r *reqRecord) bool { return r.req.write }

func (p *phase) lateMS() []float64 {
	out := make([]float64, 0, len(p.recs))
	for _, rec := range p.recs {
		out = append(out, ms(rec.s.late()))
	}
	return out
}

// okCount counts the phase's successful requests.
func (p *phase) okCount() int {
	n := 0
	for _, rec := range p.recs {
		if rec.ok {
			n++
		}
	}
	return n
}

// simRates are the simulation rates (Minst/s) of the phase's successful
// requests that simulate: instructions, warmup included, per second of
// request time.
func (p *phase) simRates() []float64 {
	var out []float64
	for _, rec := range p.recs {
		var n int64
		for _, c := range rec.req.calls {
			n += c.insts
		}
		if rec.ok && n > 0 {
			out = append(out, float64(n)/rec.s.latency().Seconds()/1e6)
		}
	}
	return out
}
