package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/breakdown"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/ooo"
	"icost/internal/profiler"
	"icost/internal/window"
	"icost/internal/workload"
)

// The oracle checks every served answer bit for bit against the same
// answer computed by direct library calls. Untimed, it builds whole-graph
// sessions with ooo.Simulate and windowed ones with window.Analyze. Timed
// (the traced run), it replays the engine's own pipeline stage by stage —
// workload.ExecuteStream, ooo.SimulateStream or ooo.SimulateWindowed, the
// window evaluator — so the replay yields per-layer times as well as the
// reference answer.

// machine is the simulated machine of a normalized session spec, as the
// engine resolves it (engine-wide lane width 0: auto).
func machine(s engine.SessionSpec) ooo.Config {
	return ooo.DefaultConfig().
		WithDL1Latency(s.DL1Latency).
		WithWindow(s.Window).
		WithWakeupExtra(s.WakeupExtra).
		WithBranchRecovery(s.BranchRecovery)
}

// normalizeSpec fills the engine's session defaults. Specs the benchmark
// sends always name bench, seed and lengths; the machine fields default.
func normalizeSpec(s engine.SessionSpec) engine.SessionSpec {
	if s.DL1Latency == 0 {
		s.DL1Latency = 2
	}
	if s.Window == 0 {
		s.Window = 64
	}
	if s.BranchRecovery == 0 {
		s.BranchRecovery = 8
	}
	return s
}

// refSession is one session rebuilt by direct library calls.
type refSession struct {
	key    string
	spec   engine.SessionSpec
	a      *cost.Analyzer
	res    *ooo.Result // whole-graph sessions
	cycles int64
	ipc    float64
	insts  int

	windowed  bool
	windows   int
	peakBytes int64
	lanes     atomic.Int64 // lanes the analyzer has batch-evaluated
}

// sessionRecord is what the report keeps per session: simulated cycles and
// IPC, so a change that alters the model shows in the output.
type sessionRecord struct {
	Bench    string  `json:"bench"`
	Seed     uint64  `json:"seed"`
	Insts    int     `json:"insts"`
	Cycles   int64   `json:"cycles"`
	IPC      float64 `json:"ipc"`
	Windowed bool    `json:"windowed,omitempty"`
}

// oracle computes reference answers. A timed oracle replays the engine's
// pipeline and its layer times are meaningful; it must run one call at a
// time.
type oracle struct {
	timed bool
	lt    layerTimes

	mu       sync.Mutex
	sessions []sessionRecord
}

func (o *oracle) note(rs *refSession) {
	o.mu.Lock()
	o.sessions = append(o.sessions, sessionRecord{
		Bench: rs.spec.Bench, Seed: rs.spec.Seed, Insts: rs.insts,
		Cycles: rs.cycles, IPC: rs.ipc, Windowed: rs.windowed,
	})
	o.mu.Unlock()
}

// build rebuilds a session and checks the simulator/graph identity: the
// unidealized critical path equals the simulated cycles.
func (o *oracle) build(ctx context.Context, spec engine.SessionSpec) (*refSession, error) {
	spec = normalizeSpec(spec)
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}
	var rs *refSession
	if spec.WindowInsts > 0 {
		rs, err = o.buildWindowed(ctx, spec)
	} else {
		rs, err = o.buildGraph(ctx, spec)
	}
	if err != nil {
		return nil, fmt.Errorf("rebuilding %s seed %d: %w", spec.Bench, spec.Seed, err)
	}
	rs.key, rs.spec = key, spec
	if base := rs.a.BaseTime(); base != rs.cycles {
		return nil, fmt.Errorf("%s seed %d: critical path %d != simulated %d cycles", spec.Bench, spec.Seed, base, rs.cycles)
	}
	o.note(rs)
	return rs, nil
}

func (o *oracle) buildGraph(ctx context.Context, spec engine.SessionSpec) (*refSession, error) {
	w, err := workload.Cached(spec.Bench, spec.Seed)
	if err != nil {
		return nil, err
	}
	n := spec.Warmup + spec.TraceLen
	var res *ooo.Result
	if !o.timed {
		tr, err := w.Execute(n, spec.Seed+1)
		if err != nil {
			return nil, err
		}
		if res, err = ooo.Simulate(tr, machine(spec), ooo.Options{KeepGraph: true, Warmup: spec.Warmup}); err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		st, err := w.ExecuteStream(sctx, n, spec.Seed+1, 0)
		if err != nil {
			return nil, err
		}
		var tm ooo.StreamTiming
		res, err = ooo.SimulateStream(sctx, st, machine(spec), ooo.Options{KeepGraph: true, Warmup: spec.Warmup, Timing: &tm})
		if err != nil {
			return nil, err
		}
		o.lt.addBuild(time.Since(start), int64(n), st.GenNS(), st.StallNS(), tm.SimNS, tm.WaitNS)
	}
	rs := &refSession{a: cost.New(res.Graph), res: res, cycles: res.Cycles, ipc: res.IPC(), insts: res.Graph.Len()}
	rs.a.SetBatchObserver(func(lanes int) { rs.lanes.Add(int64(lanes)) })
	return rs, nil
}

// subsetLanes lists every global idealization subset; index == flag bits,
// which is the table a windowed session answers from.
func subsetLanes() []depgraph.Ideal {
	ids := make([]depgraph.Ideal, 1<<depgraph.NumFlags)
	for i := range ids {
		ids[i] = depgraph.Ideal{Global: depgraph.Flags(i)}
	}
	return ids
}

func (o *oracle) buildWindowed(ctx context.Context, spec engine.SessionSpec) (*refSession, error) {
	wres, err := o.fold(ctx, spec, subsetLanes())
	if err != nil {
		return nil, err
	}
	table := wres.Times
	rs := &refSession{
		a:      cost.NewFromFunc(func(f depgraph.Flags) int64 { return table[f&depgraph.AllFlags] }),
		cycles: wres.Cycles, insts: int(wres.Insts),
		windowed: true, windows: wres.Windows, peakBytes: wres.PeakBytes,
	}
	rs.ipc = float64(wres.Stats.Insts) / float64(max(wres.Cycles, 1))
	return rs, nil
}

// fold runs the windowed pipeline over lanes: window.AnalyzeIdeals when
// untimed, a stage-timed replay of the same public stages when timed.
func (o *oracle) fold(ctx context.Context, spec engine.SessionSpec, lanes []depgraph.Ideal) (*window.Result, error) {
	req := window.Request{
		Bench: spec.Bench, Seed: spec.Seed, TraceLen: spec.TraceLen,
		Warmup: spec.Warmup, WindowInsts: spec.WindowInsts, Sim: machine(spec),
	}
	if !o.timed {
		return window.AnalyzeIdeals(ctx, req, lanes)
	}
	start := time.Now()
	w, err := workload.Cached(req.Bench, req.Seed)
	if err != nil {
		return nil, err
	}
	// Like window.AnalyzeIdeals, fold a base lane for the self-check only
	// when the request has none.
	eval, baseAt := lanes, slices.IndexFunc(lanes, func(id depgraph.Ideal) bool { return id.Global == 0 })
	if baseAt < 0 {
		eval, baseAt = append([]depgraph.Ideal{{}}, lanes...), 0
	}
	we, err := depgraph.NewWindowEvalIdeals(req.Sim.Graph, eval)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, err := w.ExecuteStream(sctx, req.Warmup+req.TraceLen, req.Seed+1, 0)
	if err != nil {
		return nil, err
	}
	var tm ooo.StreamTiming
	var foldNS, peakBlock int64
	var windows int
	res, err := ooo.SimulateWindowed(sctx, st, req.Sim, ooo.Options{Warmup: req.Warmup, Timing: &tm}, req.WindowInsts,
		func(win *depgraph.Window) error {
			windows++
			peakBlock = max(peakBlock, win.Bytes())
			t := time.Now()
			err := we.Feed(win)
			foldNS += int64(time.Since(t))
			return err
		})
	if err != nil {
		return nil, err
	}
	times := we.ExecTimes()
	if times[baseAt] != res.Cycles {
		return nil, fmt.Errorf("window: base-lane fold %d != simulated %d cycles", times[baseAt], res.Cycles)
	}
	out := &window.Result{
		Times: times[len(eval)-len(lanes):], Cycles: res.Cycles, Stats: res.Stats, Windows: windows, Insts: we.Insts(),
		PeakBytes: ooo.WindowedFootprint(&req.Sim.Graph, req.WindowInsts) + we.RingBytes() + peakBlock,
	}
	o.lt.addFold(time.Since(start), len(lanes), int64(req.Warmup+req.TraceLen), out.Insts,
		st.GenNS(), st.StallNS(), tm.SimNS-foldNS, tm.WaitNS, foldNS, out.PeakBytes)
	return out, nil
}

// release hands a whole-graph session's pooled storage back.
func (rs *refSession) release() {
	if rs.res != nil && rs.res.Graph != nil {
		rs.res.Graph.Release()
		depgraph.ReleaseTimes(rs.res.Times)
		rs.res = nil
	}
}

func flagsOf(names []string) []depgraph.Flags {
	out := make([]depgraph.Flags, len(names))
	for i, n := range names {
		out[i], _ = depgraph.FlagByName(n)
	}
	return out
}

func catsOf(names []string) []breakdown.Category {
	out := make([]breakdown.Category, len(names))
	for i, n := range names {
		f, _ := depgraph.FlagByName(n)
		out[i] = breakdown.Category{Name: n, Flags: f}
	}
	return out
}

// addOp records an analyzer operation's time when the oracle is timed.
func (o *oracle) addOp(dst *[]float64, start time.Time) {
	if o.timed {
		*dst = append(*dst, ms(time.Since(start)))
	}
}

// answer computes the response the engine must serve for q on rs. Queries
// the benchmark sends list categories in the engine's canonical order, so
// only the engine's defaults need resolving here.
func (o *oracle) answer(ctx context.Context, rs *refSession, q engine.Query) (*engine.Response, error) {
	if len(q.Cats) == 0 && (q.Op == engine.OpBreakdown || q.Op == engine.OpFull || q.Op == engine.OpMatrix) {
		q.Cats = depgraph.FlagNames()
	}
	if q.Op == engine.OpBreakdown && q.Focus == "" {
		q.Focus = "dl1"
	}
	resp := &engine.Response{
		Op: q.Op, SessionKey: rs.key, Bench: rs.spec.Bench, BaseCycles: rs.cycles, Insts: rs.insts,
		Windowed: rs.windowed, Windows: rs.windows, PeakBytes: rs.peakBytes,
	}
	a := rs.a
	var err error
	start := time.Now()
	switch q.Op {
	case engine.OpCost:
		var u depgraph.Flags
		for _, f := range flagsOf(q.Cats) {
			u |= f
		}
		resp.Value, err = a.CostCtx(ctx, u)
	case engine.OpICost:
		resp.Value, err = a.ICostCtx(ctx, flagsOf(q.Cats)...)
		resp.Interaction = cost.Classify(resp.Value, 0).String()
	case engine.OpBreakdown:
		f, _ := depgraph.FlagByName(q.Focus)
		resp.Breakdown, err = breakdown.FocusCtx(ctx, a, breakdown.Category{Name: q.Focus, Flags: f}, catsOf(q.Cats), rs.spec.Bench)
		o.addOp(&o.lt.focusMS, start)
	case engine.OpFull:
		resp.Full, err = breakdown.ComputeFullCtx(ctx, a, catsOf(q.Cats), rs.spec.Bench)
	case engine.OpMatrix:
		resp.Matrix, err = breakdown.ComputeMatrixCtx(ctx, a, catsOf(q.Cats), rs.spec.Bench)
		o.addOp(&o.lt.matrixMS, start)
	case engine.OpSlack:
		resp.Slack, err = o.slack(ctx, rs)
	case engine.OpSensitivity:
		resp.Sensitivity, err = o.sensitivity(ctx, rs, q)
	default:
		err = fmt.Errorf("oracle: op %q not modelled", q.Op)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (o *oracle) slack(ctx context.Context, rs *refSession) (*engine.SlackSummary, error) {
	slacks, err := rs.res.Graph.SlacksCtx(ctx, depgraph.Ideal{})
	if err != nil {
		return nil, err
	}
	sum := &engine.SlackSummary{Insts: len(slacks)}
	var total int64
	for _, sl := range slacks {
		total += sl
		switch {
		case sl == 0:
			sum.Critical++
		case sl < 10:
			sum.Small++
		default:
			sum.Large++
		}
	}
	if len(slacks) > 0 {
		sum.MeanSlack = float64(total) / float64(len(slacks))
	}
	return sum, nil
}

func (o *oracle) sensitivity(ctx context.Context, rs *refSession, q engine.Query) (*engine.SensitivityResult, error) {
	grid := make([]depgraph.Alpha, len(q.Alphas))
	for i, x := range q.Alphas {
		grid[i] = depgraph.AlphaOf(x)
	}
	flags := flagsOf(q.Cats)
	out := &engine.SensitivityResult{Alphas: q.Alphas}
	if !rs.windowed {
		start, lanes := time.Now(), rs.lanes.Load()
		curves, err := rs.a.SensitivityCtx(ctx, flags, grid)
		if err != nil {
			return nil, err
		}
		if o.timed {
			o.lt.addSensitivity(start, int(rs.lanes.Load()-lanes))
		}
		out.Curves = curves
		return out, nil
	}
	// A windowed session re-folds the trace with one parametric lane per
	// (category, α) sample.
	ids := make([]depgraph.Ideal, 0, len(flags)*len(grid))
	for _, f := range flags {
		for _, al := range grid {
			ids = append(ids, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, al)})
		}
	}
	start := time.Now()
	wres, err := o.fold(ctx, rs.spec, ids)
	if err != nil {
		return nil, err
	}
	o.addOp(&o.lt.refoldMS, start)
	li := 0
	for _, f := range flags {
		c := cost.Curve{Name: f.String(), Flags: f, Points: make([]cost.CurvePoint, len(grid))}
		for gi, al := range grid {
			t := wres.Times[li]
			li++
			c.Points[gi] = cost.CurvePoint{Alpha: al.Float(), Time: t, Cost: rs.cycles - t}
		}
		out.Curves = append(out.Curves, c)
	}
	return out, nil
}

// sameAnswer reports how a served /query result, with its serving fields
// already zeroed, differs from the expected response; "" means it matches
// bit for bit, comparing the canonical JSON of both.
func sameAnswer(served []byte, want *engine.Response) string {
	var got engine.Response
	if err := json.Unmarshal(served, &got); err != nil {
		return "undecodable reply: " + err.Error()
	}
	a, err1 := json.Marshal(got)
	b, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		return "unencodable response"
	}
	if bytes.Equal(a, b) {
		return ""
	}
	return firstDiff(a, b)
}

// firstDiff shows where two encodings part ways.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("served ...%s... want ...%s...", got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// ingestReply is the /ingest success body.
type ingestReply struct {
	Key     string `json:"key"`
	Host    string `json:"host"`
	Batches int    `json:"batches"`
}

// checkIngest verifies an /ingest reply and, when timed, replays the
// stream's decode (fleet.ReadStream) and merge (Aggregator.Ingest) into agg.
func (o *oracle) checkIngest(ctx context.Context, in *ingestInput, served []byte, agg *fleet.Aggregator) bool {
	var got ingestReply
	if err := json.Unmarshal(served, &got); err != nil {
		return false
	}
	if got != (ingestReply{Key: in.h.Key().String(), Host: in.h.Host, Batches: 1}) {
		return false
	}
	if !o.timed {
		return true
	}
	body := in.encode()
	var batches []*profiler.Samples
	start := time.Now()
	h, n, err := fleet.ReadStream(bytes.NewReader(body), func(_ fleet.Header, s *profiler.Samples) error {
		batches = append(batches, s)
		return nil
	})
	decode := time.Since(start)
	if err != nil || h != in.h || n != 1 {
		return false
	}
	start = time.Now()
	for _, s := range batches {
		if err := agg.Ingest(ctx, h, s); err != nil {
			return false
		}
	}
	o.lt.addIngest(decode, time.Since(start), n, len(body))
	return true
}
