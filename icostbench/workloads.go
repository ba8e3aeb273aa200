package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/ooo"
	"icost/internal/profiler"
	"icost/internal/workload"
)

// Input streams: every input is a pure function of (seed, stream, index).
// Each phase draws from its own streams, so a phase over warm services
// never repeats an earlier phase's request.
const (
	streamMain           = 1 // timed requests
	streamCapacity       = 2 // capacity-phase requests
	streamWrites         = 3 // timed ingest batches (routed-mix)
	streamInputs         = 4 // per-run inputs drawn once (query set, fleet hosts)
	streamTraced         = 5 // traced-pass requests
	streamTracedWrites   = 6
	streamCapacityWrites = 7
	streamSetup          = 10 // set-up repetition rep draws from streamSetup+rep
)

// call is one HTTP call of a logical request.
type call struct {
	path  string
	body  []byte
	q     *engine.Query // /query calls
	ing   *ingestInput  // /ingest calls
	insts int64         // instructions the call simulates (warmup included)
}

// ingestInput is one ICFS fleet stream of a single sample batch. The
// encoded stream is dropped once sent and re-encoded for the replay.
type ingestInput struct {
	h     fleet.Header
	batch *profiler.Samples
}

func (in *ingestInput) encode() []byte {
	var buf bytes.Buffer
	if err := fleet.WriteStream(&buf, in.h, []*profiler.Samples{in.batch}); err != nil {
		panic(err) // in-memory encode of a collected batch cannot fail
	}
	return buf.Bytes()
}

// request is one logical client request: one or more calls in sequence.
type request struct {
	calls []call
	write bool
}

func queryCall(q engine.Query, insts int64) call {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // an engine.Query always marshals
	}
	return call{path: "/query", body: b, q: &q, insts: insts}
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name   string
	shards int
	routed bool
	// readRate > 0 makes the timed phase an open loop at that many reads
	// per second, with writeRate ingest batches per second beside them;
	// otherwise it is a closed loop with nproc callers.
	readRate, writeRate float64
	// buildsInRequests is set when each request builds its own session, so
	// the replay charges the rebuild to the request's library time.
	buildsInRequests bool
	prepare          func(r *runState) error // optional
	setup            func(ctx context.Context, r *runState, c *cluster, rep int) error
	// gen makes request i of an input stream; write selects the
	// workload's write (ingest) requests.
	gen func(r *runState, stream, i int, write bool) *request
}

// runState is one run's generated inputs and set-up products.
type runState struct {
	seed uint64
	// sessions are warm-analysis's pre-built sessions of the latest set-up.
	sessions []engine.SessionSpec
	// reads is routed-mix's fixed read set in Zipf rank order, encoded once.
	reads   []call
	zipfCDF []float64
	fleet   []*profiler.Samples
	// setupSimRates are the simulation rates (Minst/s) of the set-up
	// builds that preload sessions.
	setupSimRates []float64
}

var workloads = []*workloadDef{coldBuild, warmAnalysis, routedMix, longWindow}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// mustQuery sends one set-up query and fails on anything but 200.
func (c *cluster) mustQuery(ctx context.Context, q engine.Query) error {
	cl := queryCall(q, 0)
	if r := c.post(ctx, cl.path, "application/json", cl.body, false); !r.ok() {
		return fmt.Errorf("set-up query %s on %s: %w", q.Op, q.Session.Bench, callErr(r))
	}
	return nil
}

// simRate is a build's simulated instructions (warmup included) per
// second of d, in millions.
func simRate(s engine.SessionSpec, d time.Duration) float64 {
	return float64(s.TraceLen+s.Warmup) / d.Seconds() / 1e6
}

// sessionSeed draws a nonzero workload seed (0 means "default" to the engine).
func sessionSeed(rng *rand.Rand) uint64 { return rng.Uint64()>>1 | 1 }

// pickCats returns k distinct category names in random order.
func pickCats(rng *rand.Rand, k int) []string {
	names := depgraph.FlagNames()
	perm := rng.Perm(len(names))
	out := make([]string, k)
	for i := range out {
		out[i] = names[perm[i]]
	}
	return out
}

// sortedCats returns k distinct category names in the engine's canonical
// (sorted) order.
func sortedCats(rng *rand.Rand, k int) []string {
	c := pickCats(rng, k)
	slices.Sort(c)
	return c
}

// freshAlphas draws k distinct interior α grid points on the model's
// fixed-point resolution, ascending: exactly the engine's normalized grid.
func freshAlphas(rng *rand.Rand, k int) []float64 {
	seen := map[int]bool{}
	out := make([]float64, 0, k)
	for len(out) < k {
		n := 1 + rng.IntN(int(depgraph.AlphaOne)-1)
		if !seen[n] {
			seen[n] = true
			out = append(out, float64(n)/float64(depgraph.AlphaOne))
		}
	}
	slices.Sort(out)
	return out
}

// cold-build: every request is a session never seen before, answered with a
// breakdown, so nearly all work is trace generation, simulation with graph
// construction and the batched power-set walk.
var (
	coldLens   = []int{5000, 10000, 20000}
	coldWarmup = 5000
)

var coldBuild = &workloadDef{
	name:             "cold-build",
	shards:           1,
	buildsInRequests: true,
	setup: func(ctx context.Context, r *runState, c *cluster, rep int) error {
		// A few builds warm the connection and the pools.
		for i := 0; i < 4; i++ {
			if err := c.mustQuery(ctx, *coldBuildRequest(r.seed, streamSetup+rep, i).calls[0].q); err != nil {
				return err
			}
		}
		return nil
	},
	gen: func(r *runState, stream, i int, _ bool) *request { return coldBuildRequest(r.seed, stream, i) },
}

func coldBuildRequest(seed uint64, stream, i int) *request {
	names := workload.Names()
	n := coldLens[(i/len(names))%len(coldLens)]
	spec := engine.SessionSpec{
		Bench: names[i%len(names)], Seed: sessionSeed(indexRNG(seed, stream, i)),
		TraceLen: n, Warmup: coldWarmup,
	}
	q := engine.Query{Session: spec, Op: engine.OpBreakdown}
	return &request{calls: []call{queryCall(q, int64(n+coldWarmup))}}
}

// warm-analysis: an open loop of analysis queries against four sessions
// built during set-up; no request builds.
var warmBenches = []string{"mcf", "gcc", "vortex", "bzip"}

// warmRate is the open-loop arrival rate. The client may hold only nproc
// connections, so the rate keeps them mostly idle (rate x latency well
// below nproc): otherwise requests queue in the client, and latency
// measures the connection limit and swings with every change in host
// speed. That is about a ninth of the capacity measured when the benchmark
// was written (700-1100 req/s on 2 shared CPUs).
const warmRate = 100

var warmAnalysis = &workloadDef{
	name:     "warm-analysis",
	shards:   1,
	readRate: warmRate,
	setup: func(ctx context.Context, r *runState, c *cluster, rep int) error {
		rng := indexRNG(r.seed, streamSetup+rep, 0)
		r.sessions = r.sessions[:0]
		for _, b := range warmBenches {
			// Default lengths: 30k timed instructions after 30k warmup.
			spec := engine.SessionSpec{Bench: b, Seed: sessionSeed(rng), TraceLen: 30000, Warmup: 30000}
			t := time.Now()
			// Preload exactly as icostd -preload does.
			if _, err := c.shards[0].e.Warm(ctx, spec); err != nil {
				return fmt.Errorf("preload %s: %w", b, err)
			}
			r.setupSimRates = append(r.setupSimRates, simRate(spec, time.Since(t)))
			r.sessions = append(r.sessions, spec)
			// One full breakdown fills the analyzer memo with every category
			// subset, so the timed matrix, breakdown and icost queries are
			// memo hits from the first request on, not only once the run
			// happens to have drawn their subsets.
			if err := c.mustQuery(ctx, engine.Query{Session: spec, Op: engine.OpFull}); err != nil {
				return err
			}
		}
		return nil
	},
	gen: warmRequest,
}

func warmRequest(r *runState, stream, i int, _ bool) *request {
	rng := indexRNG(r.seed, stream, i)
	q := engine.Query{Session: r.sessions[rng.IntN(len(r.sessions))]}
	// Walk-bound queries (slack, sensitivity) are a quarter of the mix and
	// memo-bound ones the rest, so the median falls well inside the fast
	// class rather than on the boundary between the classes, where it would
	// jump with any shift.
	switch x := rng.Float64(); {
	case x < 0.10:
		// The engine keys its result cache on the category list even for
		// slack, which ignores it, so a fresh list makes every slack reach
		// the unmemoized backward walk.
		q.Op, q.Cats = engine.OpSlack, pickCats(rng, 1+rng.IntN(8))
	case x < 0.25:
		// Fresh α points: the run never exhausts the scaled memo.
		q.Op, q.Cats, q.Alphas = engine.OpSensitivity, sortedCats(rng, 2), freshAlphas(rng, 3)
	case x < 0.40:
		q.Op, q.Cats = engine.OpMatrix, sortedCats(rng, 3+rng.IntN(4))
	case x < 0.95:
		// Ordered category lists: few repeats, so the result cache rarely
		// answers, while the analyzer memo mostly does.
		q.Op, q.Cats = engine.OpBreakdown, pickCats(rng, 3+rng.IntN(4))
		q.Focus = pickCats(rng, 1)[0]
	default:
		q.Op, q.Cats = engine.OpICost, sortedCats(rng, 2+rng.IntN(3))
	}
	return &request{calls: []call{queryCall(q, 0)}}
}

// routed-mix: Zipf-skewed reads of a fixed query set through the router in
// front of two shards, beside a low fixed rate of fleet ingest batches.
var routedBenches = []string{"gzip", "twolf", "perl", "vpr"}

const (
	routedRate   = 400 // reads per second; see warmRate for the choice
	routedWrites = 10  // ingest batches per second
	zipfS        = 1.1
)

var routedMix = &workloadDef{
	name:      "routed-mix",
	shards:    2,
	routed:    true,
	readRate:  routedRate,
	writeRate: routedWrites,
	prepare:   prepareFleet,
	setup:     routedSetup,
	gen:       routedRequest,
}

// prepareFleet simulates a few hosts and collects their sample batches;
// ingest requests re-frame them under varying host names.
func prepareFleet(r *runState) error {
	const n, warmup = 6000, 2000
	for k := 0; k < 4; k++ {
		rng := indexRNG(r.seed, streamInputs, k)
		w, err := workload.Cached(routedBenches[k%2], 7)
		if err != nil {
			return err
		}
		traceSeed := sessionSeed(rng)
		tr, err := w.Execute(warmup+n, traceSeed)
		if err != nil {
			return err
		}
		res, err := ooo.Simulate(tr, ooo.DefaultConfig(), ooo.Options{KeepGraph: true, Warmup: warmup})
		if err != nil {
			return err
		}
		cfg := profiler.DefaultConfig()
		cfg.Seed = traceSeed
		s, err := profiler.Collect(tr, res.Graph, warmup, cfg)
		if err != nil {
			return err
		}
		r.fleet = append(r.fleet, s)
	}
	return nil
}

func routedSetup(ctx context.Context, r *runState, c *cluster, rep int) error {
	rng := indexRNG(r.seed, streamSetup+rep, 0)
	var queries []engine.Query
	alphas := freshAlphas(indexRNG(r.seed, streamInputs, 100), 3)
	for _, b := range routedBenches {
		s := engine.SessionSpec{Bench: b, Seed: sessionSeed(rng), TraceLen: 10000, Warmup: 10000}
		queries = append(queries,
			engine.Query{Session: s, Op: engine.OpCost, Cats: []string{"dl1"}},
			engine.Query{Session: s, Op: engine.OpCost, Cats: []string{"dmiss"}},
			engine.Query{Session: s, Op: engine.OpICost, Cats: []string{"dl1", "dmiss"}},
			engine.Query{Session: s, Op: engine.OpBreakdown, Focus: "dmiss"},
			engine.Query{Session: s, Op: engine.OpMatrix, Cats: []string{"bmisp", "dl1", "dmiss", "win"}},
			engine.Query{Session: s, Op: engine.OpSlack},
			engine.Query{Session: s, Op: engine.OpSensitivity, Cats: []string{"dl1", "dmiss"}, Alphas: alphas},
			engine.Query{Session: s, Op: engine.OpFull, Cats: []string{"bmisp", "dl1", "dmiss", "win"}},
		)
	}
	// Every query once: the first builds its session; past the hot
	// threshold the router replicates the session to the other shard.
	for k, q := range queries {
		t := time.Now()
		if err := c.mustQuery(ctx, q); err != nil {
			return err
		}
		if k%8 == 0 { // the session's first query builds it
			r.setupSimRates = append(r.setupSimRates, simRate(q.Session, time.Since(t)))
		}
	}
	if err := c.awaitReplication(ctx, int64(len(routedBenches)), 10*time.Second); err != nil {
		return err
	}
	// Rank order of the Zipf draw: a seeded permutation of the query set.
	perm := indexRNG(r.seed, streamInputs, 101).Perm(len(queries))
	r.reads = make([]call, len(queries))
	for i, p := range perm {
		r.reads[i] = queryCall(queries[p], 0)
	}
	r.zipfCDF = zipfCDF(len(r.reads), zipfS)
	return nil
}

// zipfCDF is the cumulative distribution of ranks 1..n with weight k^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var t float64
	for k := range cdf {
		t += math.Pow(float64(k+1), -s)
		cdf[k] = t
	}
	for k := range cdf {
		cdf[k] /= t
	}
	return cdf
}

func routedRequest(r *runState, stream, i int, write bool) *request {
	rng := indexRNG(r.seed, stream, i)
	if write {
		k := i % len(r.fleet)
		h := fleet.Header{
			Binary: routedBenches[k%2], Seed: 7,
			Group: fmt.Sprintf("g%d", k/2), Host: fmt.Sprintf("host-%02d", rng.IntN(64)),
		}
		in := &ingestInput{h: h, batch: r.fleet[k]}
		return &request{write: true, calls: []call{{path: "/ingest", body: in.encode(), ing: in}}}
	}
	rank, _ := slices.BinarySearch(r.zipfCDF, rng.Float64())
	return &request{calls: []call{r.reads[min(rank, len(r.reads)-1)]}}
}

// long-window: each request is a new windowed session answered with a full
// breakdown and one sensitivity re-fold.
var longBenches = []string{"mcf", "gcc"}

const (
	longInsts    = 200000
	longWarmup   = 20000
	longWinInsts = 4096
)

var longWindow = &workloadDef{
	name:             "long-window",
	shards:           1,
	buildsInRequests: true,
	setup: func(ctx context.Context, r *runState, c *cluster, rep int) error {
		rng := indexRNG(r.seed, streamSetup+rep, 0)
		spec := engine.SessionSpec{Bench: "gzip", Seed: sessionSeed(rng), TraceLen: 20000, Warmup: 5000, WindowInsts: longWinInsts}
		return c.mustQuery(ctx, engine.Query{Session: spec, Op: engine.OpFull})
	},
	gen: func(r *runState, stream, i int, _ bool) *request {
		rng := indexRNG(r.seed, stream, i)
		spec := engine.SessionSpec{
			Bench: longBenches[i%len(longBenches)], Seed: sessionSeed(rng),
			TraceLen: longInsts, Warmup: longWarmup, WindowInsts: longWinInsts,
		}
		n := int64(longInsts + longWarmup)
		return &request{calls: []call{
			queryCall(engine.Query{Session: spec, Op: engine.OpFull}, n),
			queryCall(engine.Query{Session: spec, Op: engine.OpSensitivity, Cats: sortedCats(rng, 2), Alphas: freshAlphas(rng, 2)}, n),
		}}
	},
}
