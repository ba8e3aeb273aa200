// Command icostbench is the repository's benchmark: it drives icost the way
// users do — over the icostd HTTP API, through daemon.NewHandler on
// loopback, and through router.New for the routed workload — checks every
// answer bit for bit against direct library calls, and reports end-to-end
// metrics. With -trace 1 it instead makes traced passes at GOMAXPROCS=nproc
// and GOMAXPROCS=1, replays the same requests as direct calls into each
// module, and reports per-layer metrics.
//
// Usage (from the repository root; icostbench/run.sh builds and runs it):
//
//	icostbench --workload cold-build|warm-analysis|routed-mix|long-window \
//	           --seed n --seconds s --trace 0|1 [--out dir]
//
// Standard output ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. The line before it is the full report: provenance,
// every timing as a median plus its highest percentile with at least ten
// samples beyond it, per-session simulated cycles and IPC.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"icost/internal/engine"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a user of icost sees, reported on every
// workload by an untraced run. Tail latencies and simulation rates are in
// the report line instead: on the shared 2-CPU host the benchmark was
// written on, identical runs drift 15-35% within half an hour, and those
// metrics spread beyond any useful bound between runs. Bounds are wide for
// the same reason.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"capacity_qps", "1/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// perLayerBase lists the per-layer metrics of one traced pass. The pass at
// GOMAXPROCS=1 reports each under the same name plus p1Suffix.
var perLayerBase = []metricDef{
	{Name: "workload.gen_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "workload.gen_stall_frac", Unit: "frac", Better: "lower"},
	{Name: "ooo.sim_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "ooo.sim_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "depgraph.forward_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "depgraph.backward_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "depgraph.batch_ns_per_lane_inst", Unit: "ns", Better: "lower"},
	{Name: "depgraph.lanes_per_batch", Unit: "count", Better: "higher"},
	{Name: "depgraph.scaled_ns_per_lane_inst", Unit: "ns", Better: "lower"},
	{Name: "cost.sensitivity_ms", Unit: "ms", Better: "lower"},
	{Name: "cost.lanes_per_query", Unit: "count", Better: "lower"},
	{Name: "breakdown.matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "breakdown.focus_ms", Unit: "ms", Better: "lower"},
	{Name: "window.fold_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "window.refold_ms", Unit: "ms", Better: "lower"},
	{Name: "window.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "engine.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "engine.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.result_cache_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "engine.queue_rejects", Unit: "count", Better: "lower"},
	{Name: "engine.sessions_built", Unit: "count", Better: "lower"},
	{Name: "engine.sessions_evicted", Unit: "count", Better: "lower"},
	{Name: "daemon.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "daemon.resp_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "router.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.forward_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.forward_us_p99", Unit: "us", Better: "lower"},
	{Name: "router.hedges_launched", Unit: "count", Better: "lower"},
	{Name: "router.hedge_win_ratio", Unit: "frac", Better: "higher"},
	{Name: "router.replications", Unit: "count", Better: "lower"},
	{Name: "router.replication_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.decode_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "fleet.merge_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "fleet.batch_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fleet.ingest_rejects", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "trace.residual_frac", Unit: "frac", Better: "lower"},
}

// perLayerAllCores are reported by the GOMAXPROCS=nproc pass only: they
// need its untraced reference pass.
var perLayerAllCores = []metricDef{
	{Name: "fleet.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.ingest_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

const p1Suffix = ".p1"

// perLayer is every per-layer metric a traced run reports.
func perLayer() []metricDef {
	out := append(append([]metricDef(nil), perLayerBase...), perLayerAllCores...)
	for _, m := range perLayerBase {
		m.Name += p1Suffix
		out = append(out, m)
	}
	return out
}

// setupReps is how many times a run sets its services up; setup_s is the
// median.
const setupReps = 5

// runTimeout bounds a whole run, well inside the three minutes a run may
// take.
const runTimeout = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: cold-build, warm-analysis, routed-mix or long-window")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	os.Exit(run(o))
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) int {
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "icostbench: need --workload cold-build|warm-analysis|routed-mix|long-window, --seconds >= 1, --trace 0|1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	rep := &report{Provenance: provenance(o, nproc), Workload: w.name}
	attempted, failed := 0, 0
	checks := modelCheck(ctx)
	rep.ModelCheck = checks
	for _, c := range checks {
		attempted++
		if !c.OK {
			failed++
		}
	}

	r := &runState{seed: o.seed}
	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			fmt.Fprintln(os.Stderr, "icostbench: generating inputs:", err)
			return 1
		}
	}
	var metrics map[string]float64
	var defs []metricDef
	var err error
	var a, f int
	if o.trace == 1 {
		defs = perLayer()
		metrics, a, f, err = tracedRun(ctx, w, r, time.Duration(o.seconds)*time.Second, nproc, o, rep)
	} else {
		defs = endToEnd
		metrics, a, f, err = untracedRun(ctx, w, r, time.Duration(o.seconds)*time.Second, nproc, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "icostbench:", err)
		return 1
	}
	attempted += a
	failed += f
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			fmt.Fprintln(os.Stderr, "icostbench: metric not measured:", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "icostbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "icostbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "icostbench: %d of %d operations failed or answered wrongly\n", failed, attempted)
		return 1
	}
	return 0
}

// report is the full account of a run, printed before the result line.
type report struct {
	Provenance map[string]any    `json:"provenance"`
	Workload   string            `json:"workload"`
	ModelCheck []modelCheckEntry `json:"model_check"`
	SetupS     []float64         `json:"setup_s,omitempty"`
	// SimMinstPerS is the simulation rate of the run's session builds.
	SimMinstPerS dist            `json:"sim_minst_per_s"`
	Phases       map[string]any  `json:"phases"`
	Sessions     []sessionRecord `json:"sessions"`
	SpansFile    []string        `json:"spans_files,omitempty"`
}

// untracedRun is the end-to-end run: set-up repeated setupReps times, then
// the timed phase. An open-loop workload runs its schedule for two thirds of
// d and then nproc closed-loop callers on the same mix for the rest, which
// give capacity_qps. A closed-loop workload runs nproc callers for all of d,
// giving both: a single caller leaves the CPUs idle between pipeline
// hand-offs, and on a shared host its latency then follows the host's
// wake-up latency (it drifted 45% within minutes while throughput at nproc
// callers held within 8%).
func untracedRun(ctx context.Context, w *workloadDef, r *runState, d time.Duration, nproc int, rep *report) (map[string]float64, int, int, error) {
	var c *cluster
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if c != nil {
			c.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if c, err = startCluster(w.shards, w.routed, nproc, nil); err != nil {
			return nil, 0, 0, err
		}
		if err := w.setup(ctx, r, c, k); err != nil {
			c.close()
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	rep.SetupS = setups

	runtime.GC()
	timedD, capa := d, (*phase)(nil)
	if w.readRate > 0 {
		timedD = d * 2 / 3
	}
	timed := runPhase(ctx, w, r, c, timedD, 1, streams{streamMain, streamWrites}, nproc)
	// Peak RSS covers set-up and the timed phase, whose request count the
	// seed fixes; the capacity phase's varies with the host's speed.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, 0, 0, err
	}
	all := timed.recs
	if w.readRate > 0 {
		capa = runClosedPhase(ctx, w, r, c, d-timedD, nproc, streams{streamCapacity, streamCapacityWrites})
		all = append(append([]*reqRecord(nil), timed.recs...), capa.recs...)
	} else {
		capa = timed
	}
	if ctx.Err() != nil {
		return nil, 0, 0, fmt.Errorf("run exceeded %v", runTimeout)
	}

	o := &oracle{}
	failed := verify(ctx, w, o, all, nproc)
	rep.Sessions = o.sessions

	m := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(timed.latencies(reads)),
		"capacity_qps":   ratio(float64(capa.okCount()), capa.elapsed.Seconds()),
		"peak_rss_mib":   float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	rep.Phases = map[string]any{"timed": phaseReport(w, timed, timedD, 1)}
	if capa != timed {
		rep.Phases["capacity"] = phaseReport(w, capa, d-timedD, 0)
	}
	// Simulated instructions (warmup included) per second: of each request
	// where requests build sessions, else of each set-up build.
	if w.buildsInRequests {
		rep.SimMinstPerS = summarize(timed.simRates())
	} else {
		rep.SimMinstPerS = summarize(r.setupSimRates)
	}
	return m, len(all), failed, nil
}

// phaseReport summarizes a phase: every timing as a dist.
func phaseReport(w *workloadDef, p *phase, d time.Duration, rateScale float64) map[string]any {
	out := map[string]any{
		"seconds":    d.Seconds(),
		"requests":   len(p.recs),
		"ok":         p.okCount(),
		"latency_ms": summarize(p.latencies(reads)),
	}
	if rateScale > 0 && w.readRate > 0 {
		out["loop"] = "open"
		out["read_rate"] = w.readRate * rateScale
		out["write_rate"] = w.writeRate * rateScale
		out["late_ms"] = summarize(p.lateMS())
	} else {
		out["loop"] = "closed"
		out["throughput_qps"] = ratio(float64(p.okCount()), p.elapsed.Seconds())
	}
	if w.writeRate > 0 {
		out["ingest_ms"] = summarize(p.latencies(writes))
	}
	byOp := map[engine.Op][]float64{}
	for _, rec := range p.recs {
		if rec.ok && !rec.req.write {
			op := rec.req.calls[0].q.Op
			byOp[op] = append(byOp[op], ms(rec.s.latency()))
		}
	}
	if len(byOp) > 1 {
		ops := map[engine.Op]dist{}
		for op, l := range byOp {
			ops[op] = summarize(l)
		}
		out["latency_ms_by_op"] = ops
	}
	return out
}

// provenance records what a reader needs to repeat the run.
func provenance(o options, nproc int) map[string]any {
	return map[string]any{
		"seed":          o.seed,
		"command":       os.Args,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"seconds":       o.seconds,
		"trace":         o.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spansPath names the span file of one traced pass; a later run of the
// same workload replaces it.
func spansPath(o options, procs int) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-procs%d.jsonl", o.workload, procs))
}
