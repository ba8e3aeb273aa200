package depgraph

import (
	"fmt"
	"math"

	"icost/internal/cache"
)

// Windowed long-trace evaluation. A whole-trace Graph holds ~56 bytes
// of records per instruction — tens of millions of instructions means
// gigabytes resident before a single query runs. But the graph model
// itself is local: every edge reaches back a bounded number of
// instructions (the re-order buffer for CD edges — at most
// Window×WindowIdealFactor under the infinite-window idealization —
// and FetchBW/CommitBW for the bandwidth edges; producer and
// line-sharing edges can reach arbitrarily far back as *records*, but
// beyond the window depth they can never bind, see below). So the
// forward recurrence streams: the simulator emits bounded Window
// blocks of CSR records, and WindowEval folds each block into
// per-idealization node-time rings whose size depends only on the
// machine configuration — never on trace length.
//
// Boundary-edge carry and exactness. The carry depth K = CarryDepth()
// = max(Window×WindowIdealFactor, FetchBW, CommitBW) bounds how far
// back any *binding* edge can reach, for every global idealization:
// commit times are monotone (the CC edge chains every instruction),
// and the CD edge — present under every idealization, merely widened
// by IdealWindow — forces D(i) ≥ C(i−w). A producer p more than w
// behind i therefore has P(p) ≤ C(p) − CompleteToCommit ≤ C(i−w) −
// CompleteToCommit ≤ D(i) − CompleteToCommit, so its PR edge cannot
// lift R(i) = max(D(i) + DispatchToReady, P(p) + WakeupExtra) as long
// as WakeupExtra ≤ DispatchToReady + CompleteToCommit — the
// ValidateWindowed precondition. Line-sharing PP edges are
// unconditional: P(leader) ≤ C(i−w) ≤ D(i) ≤ P(i) already. Refs
// farther back than K are clamped to NoRef at emission, and the fold
// over clamped blocks is bit-identical to the whole-graph walk —
// FuzzWindowFold and the window package's tests prove this against
// full simulations.
//
// The arrays are per-kind edge columns exactly like Graph's — the
// same CSR layout, windowed.
//
// Loop shape. The fold is lane-inner: per instruction, every lane's
// D, P and C are computed from ring rows of earlier instructions. It
// runs as out-of-line lane passes — one loop per node over the lanes,
// plus a pass per edge term the instruction actually carries — over
// lane parameters resolved once into columns (laneCols) and ring rows
// resolved once per instruction into length-L slices. Gated edges are
// branch-free max terms with an additive noTime sentinel, and absent
// rows point at a shared sentinel row, so no pass tests per lane for
// a missing edge. A single loop over all edge rules carries about 30
// live values and spills some of them on every lane; a pass carries a
// handful and spills none. Node values are the same integer sums and
// maxima either way, so the passes change the order of work, never a
// result.

// NoRef marks an absent or clamped cross-window reference in a
// Window's producer/leader columns. Distinct from -1, which is a
// valid relative reference (the instruction before the window start).
const NoRef = int32(math.MinInt32)

// Window is one bounded block of dependence-graph records emitted by
// the streaming simulator. Producer and leader references are
// relative to Lo (absolute index Lo+rel; negative values reach into
// earlier windows, never farther back than the carry depth — beyond
// it they are clamped to NoRef, which the evaluation above proves
// lossless).
type Window struct {
	// Lo is the absolute dynamic index of the first instruction.
	Lo int64
	// N is the number of instructions in the block.
	N int

	Info     []InstInfo
	DDBreak  []uint8
	RELat    []int32
	CCLat    []int32
	Prod1    []int32 // relative to Lo, or NoRef
	Prod2    []int32 // relative to Lo, or NoRef
	PPLeader []int32 // relative to Lo, or NoRef
	// MispPrev[j] != 0 marks instruction Lo+j-1 as a mispredicted
	// branch (the PD-edge gate; carried explicitly because the
	// previous instruction may live in an earlier, discarded window).
	MispPrev []uint8
}

// Resize prepares the window to hold n instructions starting at
// absolute index lo, growing the columns as needed. Contents are
// unspecified; the filler overwrites every element.
func (w *Window) Resize(lo int64, n int) {
	w.Lo, w.N = lo, n
	if cap(w.Info) < n {
		w.Info = make([]InstInfo, n)
		w.DDBreak = make([]uint8, n)
		w.RELat = make([]int32, n)
		w.CCLat = make([]int32, n)
		w.Prod1 = make([]int32, n)
		w.Prod2 = make([]int32, n)
		w.PPLeader = make([]int32, n)
		w.MispPrev = make([]uint8, n)
	}
	w.Info = w.Info[:n]
	w.DDBreak = w.DDBreak[:n]
	w.RELat = w.RELat[:n]
	w.CCLat = w.CCLat[:n]
	w.Prod1 = w.Prod1[:n]
	w.Prod2 = w.Prod2[:n]
	w.PPLeader = w.PPLeader[:n]
	w.MispPrev = w.MispPrev[:n]
}

// Bytes is the block's backing-store footprint, for budget accounting.
func (w *Window) Bytes() int64 {
	const instInfoBytes = int64(16) // Op+SIdx+flags+levels, padded
	n := int64(cap(w.Info))
	return n*instInfoBytes + n /*DDBreak*/ + 5*4*n /*int32 columns*/ + n /*MispPrev*/
}

// CarryDepth is the maximum backward reach, in instructions, of any
// binding edge under any global idealization of this configuration:
// the idealized re-order window, or a bandwidth-edge span if wider.
func (c *Config) CarryDepth() int {
	k := c.Window * c.WindowIdealFactor
	if c.FetchBW > k {
		k = c.FetchBW
	}
	if c.CommitBW > k {
		k = c.CommitBW
	}
	return k
}

// ValidateWindowed extends Validate with the windowed-exactness
// precondition: a producer beyond the re-order window must never bind
// through its PR edge, which requires the wakeup latency not to
// exceed the dispatch-to-ready plus complete-to-commit path (see the
// package comment above; the Table 6 machine satisfies it with room).
func (c *Config) ValidateWindowed() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.WakeupExtra > c.DispatchToReady+c.CompleteToCommit {
		return fmt.Errorf("depgraph: windowed evaluation requires WakeupExtra (%d) <= DispatchToReady (%d) + CompleteToCommit (%d)",
			c.WakeupExtra, c.DispatchToReady, c.CompleteToCommit)
	}
	return nil
}

// WindowEval folds Window blocks into execution times under a fixed
// set of global idealizations, holding only carry-deep node-time
// rings: memory is O(CarryDepth × lanes), independent of trace
// length. Blocks must be fed in stream order. Every lane's effective
// window stays within [Window, Window×WindowIdealFactor] whatever its
// scale, so the carry depth and the exactness argument above hold for
// parametric lanes too.
type WindowEval struct {
	cfg  Config
	cols laneCols

	carry int   // K: emission clamp horizon, ring history depth
	rmask int64 // ring index mask (ring size - 1, power of two)

	// Node-time rings, ring-slot-major × lane: index (abs&rmask)*L+w.
	// R and E never cross instructions; the P pass folds them away.
	d, p, c []int64

	// zero stands in for D(i-1) at the stream's first instruction,
	// none for every absent or clamped row (all noTime), so no lane
	// pass ever tests for a missing reference. Both are L long and
	// never written after construction.
	zero, none []int64

	n int64 // instructions folded so far
}

// noTime is the lane passes' additive sentinel: a missing row holds
// it and a gated-off edge adds it to its source time, so the edge's
// max term can never bind. It sits far enough above the int64 floor
// that a sentinel row plus a sentinel gate plus any latency cannot
// wrap.
const noTime = math.MinInt64 / 4

// laneCols is the fold's lane set resolved once into per-lane columns
// (index = lane): the multipliers of lane, the effective re-order
// window, and the additive gates of the gated edges — bwGate for
// FBW/CBW and dmGate for PP are 0 while the edge is active and noTime
// once its category's multiplier is 0; rec is the scaled PD
// branch-recovery latency, or noTime when the lane predicts
// correctly. Every column is L long; newLaneCols is the only writer.
type laneCols struct {
	bwM, icM, dl1M, dmM, shM, lgM []int64
	win                           []int64
	bwGate, dmGate, rec           []int64
}

// newLaneCols resolves every lane of ids against cfg into columns.
func newLaneCols(cfg *Config, ids []Ideal) laneCols {
	n := len(ids)
	back := make([]int64, 10*n)
	col := func(k int) []int64 { return back[k*n : (k+1)*n : (k+1)*n] }
	lc := laneCols{
		bwM: col(0), icM: col(1), dl1M: col(2), dmM: col(3), shM: col(4), lgM: col(5),
		win:    col(6),
		bwGate: col(7), dmGate: col(8), rec: col(9),
	}
	gate := func(m int64) int64 {
		if m > 0 {
			return 0
		}
		return noTime
	}
	for k := range ids {
		ln := laneOf(cfg, ids[k].Global, &ids[k].Scale)
		lc.bwM[k], lc.icM[k], lc.dl1M[k] = ln.bwM, ln.icM, ln.dl1M
		lc.dmM[k], lc.shM[k], lc.lgM[k] = ln.dmM, ln.shM, ln.lgM
		lc.win[k] = int64(ln.win)
		lc.bwGate[k], lc.dmGate[k] = gate(ln.bwM), gate(ln.dmM)
		lc.rec[k] = noTime
		if ln.recM > 0 {
			lc.rec[k] = scaleLat(int64(cfg.BranchRecovery), ln.recM)
		}
	}
	return lc
}

// NewWindowEvalIdeals builds an evaluator for the given configuration
// and idealization lanes, which may carry parametric scale factors.
// Lanes must be global: windowed folds have no per-instruction
// identity to apply a mask against.
func NewWindowEvalIdeals(cfg Config, ids []Ideal) (*WindowEval, error) {
	if err := cfg.ValidateWindowed(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("depgraph: windowed evaluation needs at least one idealization lane")
	}
	for k := range ids {
		if ids[k].PerInst != nil {
			return nil, fmt.Errorf("depgraph: windowed evaluation lanes must be global (lane %d has a per-instruction mask)", k)
		}
	}
	we := &WindowEval{cfg: cfg}
	we.cols = newLaneCols(&we.cfg, ids)
	we.carry = cfg.CarryDepth()
	ring := int64(1)
	for ring < int64(we.carry)+1 {
		ring <<= 1
	}
	we.rmask = ring - 1
	L := int64(len(ids))
	we.d = make([]int64, ring*L)
	we.p = make([]int64, ring*L)
	we.c = make([]int64, ring*L)
	we.zero = make([]int64, L)
	we.none = make([]int64, L)
	for w := range we.none {
		we.none[w] = noTime
	}
	return we, nil
}

// Insts returns how many instructions have been folded.
func (we *WindowEval) Insts() int64 { return we.n }

// RingBytes is the evaluator's node-time ring footprint.
func (we *WindowEval) RingBytes() int64 {
	return 3 * int64(len(we.d)) * 8
}

// CarryDepth returns the clamp horizon K the emitter must apply:
// references farther than K behind their consumer must arrive as
// NoRef.
func (we *WindowEval) CarryDepth() int { return we.carry }

// Feed folds one block. Blocks must arrive in stream order: win.Lo
// must equal the number of instructions already folded.
func (we *WindowEval) Feed(win *Window) error {
	if win.Lo != we.n {
		return fmt.Errorf("depgraph: window starts at %d, evaluator at %d", win.Lo, we.n)
	}
	we.fold(win)
	we.n += int64(win.N)
	return nil
}

// fold is the windowed fold kernel. Per instruction it decomposes the
// latencies from InstInfo (a window carries no flat tables), resolves
// every ring row the edges read into a length-L slice — the none or
// zero row when absent — and runs one lane pass per node: laneDispatch
// for D, laneReady for P (R and E folded in), laneCommit for C. Edge
// terms that are rare or instruction-invariantly absent get a pass of
// their own only when present: a nonzero DD or EP latency component
// (laneAdd), a mispredicted predecessor or a line-sharing leader
// (laneMaxAdd), store-commit contention (laneMaxScaled).
//
//lint:hotpath
func (we *WindowEval) fold(win *Window) {
	cfg := &we.cfg
	cols := &we.cols
	D, P, C := we.d, we.p, we.c
	rmask := we.rmask
	dr := int64(cfg.DispatchToReady)
	pc := int64(cfg.CompleteToCommit)
	wake := int64(cfg.WakeupExtra)
	fbw, cbw := int64(cfg.FetchBW), int64(cfg.CommitBW)
	dl1 := int64(cfg.DL1Latency)
	l2 := int64(cfg.L2Latency)
	mem := int64(cfg.L2Latency) + int64(cfg.MemLatency)
	tlb := int64(cfg.TLBMissLatency)

	for j := 0; j < win.N; j++ {
		abs := win.Lo + int64(j)
		// Decompose this instruction's latencies once; the cost
		// amortizes over every lane.
		base, d1L, dmL, shL, lgL, icL := decomposeLat(&win.Info[j], dl1, l2, mem, tlb)

		dRow, pRow, cRow := we.row(D, abs), we.row(P, abs), we.row(C, abs)
		dPrev, pPrev, cPrev := we.zero, we.none, we.none
		if abs > 0 {
			dPrev, pPrev, cPrev = we.row(D, abs-1), we.row(P, abs-1), we.row(C, abs-1)
		}
		fbwRow, cbwRow := we.none, we.none
		if abs >= fbw {
			fbwRow = we.row(D, abs-fbw)
		}
		if abs >= cbw {
			cbwRow = we.row(C, abs-cbw)
		}
		p1Row, _ := we.refRow(P, win.Prod1[j], win.Lo)
		p2Row, _ := we.refRow(P, win.Prod2[j], win.Lo)
		leadRow, lead := we.refRow(P, win.PPLeader[j], win.Lo)

		// D: DD (scaled fetch break and icache latency), PD, FBW, CD.
		src := dPrev
		if dd := int64(win.DDBreak[j]); dd != 0 {
			laneAdd(dRow, src, dd, cols.bwM)
			src = dRow
		}
		if icL != 0 {
			laneAdd(dRow, src, icL, cols.icM)
			src = dRow
		}
		laneDispatch(dRow, src, fbwRow, cols.bwGate, cols.win, C, abs, rmask)
		if win.MispPrev[j] != 0 {
			laneMaxAdd(dRow, pPrev, cols.rec)
		}

		// P: DR, PR, RE, EP, PP.
		laneReady(pRow, dRow, p1Row, p2Row, dr, wake, base)
		if reLat := int64(win.RELat[j]); reLat != 0 {
			laneAdd(pRow, pRow, reLat, cols.bwM)
		}
		if d1L != 0 {
			laneAdd(pRow, pRow, d1L, cols.dl1M)
		}
		if dmL != 0 {
			laneAdd(pRow, pRow, dmL, cols.dmM)
		}
		if shL != 0 {
			laneAdd(pRow, pRow, shL, cols.shM)
		}
		if lgL != 0 {
			laneAdd(pRow, pRow, lgL, cols.lgM)
		}
		if lead {
			laneMaxAdd(pRow, leadRow, cols.dmGate)
		}

		// C: PC, CC, CBW.
		laneCommit(cRow, pRow, cPrev, cbwRow, cols.bwGate, pc)
		if ccLat := int64(win.CCLat[j]); ccLat != 0 {
			laneMaxScaled(cRow, cPrev, ccLat, cols.bwM)
		}
	}
}

// row is instruction abs's row of a node-time ring.
func (we *WindowEval) row(ring []int64, abs int64) []int64 {
	L := int64(len(we.none))
	at := (abs & we.rmask) * L
	return ring[at : at+L]
}

// refRow resolves a Lo-relative reference into its ring row, or the
// none row (and false) when the reference is absent or clamped.
func (we *WindowEval) refRow(ring []int64, rel int32, lo int64) ([]int64, bool) {
	abs := lo + int64(rel)
	if rel == NoRef || abs < 0 {
		return we.none, false
	}
	return we.row(ring, abs), true
}

// The lane passes. Each is one loop over the lanes of one instruction,
// reading rows and lane columns that are all L long (the reslices let
// the compiler drop the bounds checks). They stay out of line on
// purpose: inlined into fold's instruction loop, the combined live
// set no longer fits in registers and every lane pays for spills.

// laneAdd sets dst = src + lat scaled by each lane's multiplier m.
//
//go:noinline
//lint:hotpath
func laneAdd(dst, src []int64, lat int64, m []int64) {
	src, m = src[:len(dst)], m[:len(dst)]
	for w := range dst {
		dst[w] = src[w] + scaleLat(lat, m[w])
	}
}

// laneMaxAdd lifts dst to src + add where that is later: a gated edge
// whose per-lane addend is its latency, or noTime when gated off.
//
//go:noinline
//lint:hotpath
func laneMaxAdd(dst, src, add []int64) {
	src, add = src[:len(dst)], add[:len(dst)]
	for w := range dst {
		dst[w] = max(dst[w], src[w]+add[w])
	}
}

// laneMaxScaled lifts dst to src + lat scaled by m where that is
// later: the CC edge when it carries store-commit contention.
//
//go:noinline
//lint:hotpath
func laneMaxScaled(dst, src []int64, lat int64, m []int64) {
	src, m = src[:len(dst)], m[:len(dst)]
	for w := range dst {
		dst[w] = max(dst[w], src[w]+scaleLat(lat, m[w]))
	}
}

// laneDispatch is the D pass: D = max(src, D(i-fbw)+1, C(i-win)),
// where src already holds D(i-1) plus the scaled DD latency, the FBW
// edge is gated by bw, and the CD edge reads the commit-ring row of
// each lane's own effective window.
//
//go:noinline
//lint:hotpath
func laneDispatch(d, src, fbw, bwGate, win, cRing []int64, abs, rmask int64) {
	L := int64(len(d))
	src, fbw, bwGate, win = src[:len(d)], fbw[:len(d)], bwGate[:len(d)], win[:len(d)]
	for w := range d {
		v := max(src[w], fbw[w]+1+bwGate[w])
		if back := abs - win[w]; back >= 0 {
			v = max(v, cRing[(back&rmask)*L+int64(w)])
		}
		d[w] = v
	}
}

// laneReady is the P pass: P = max(D+dr, P(p1)+wake, P(p2)+wake) + k,
// the DR and PR edges into R plus the EP latency every lane shares.
// The scaled RE and EP components follow as laneAdd passes; integer
// sums are exact, so their order is immaterial.
//
//go:noinline
//lint:hotpath
func laneReady(p, d, p1, p2 []int64, dr, wake, k int64) {
	d, p1, p2 = d[:len(p)], p1[:len(p)], p2[:len(p)]
	for w := range p {
		p[w] = max(d[w]+dr, max(p1[w], p2[w])+wake) + k
	}
}

// laneCommit is the C pass: C = max(P+pc, C(i-1), C(i-cbw)+1), the
// CBW edge gated by bw. A contended CC edge follows as laneMaxScaled;
// the bare C(i-1) term it leaves behind never binds over it, since a
// scaled latency is never negative.
//
//go:noinline
//lint:hotpath
func laneCommit(c, p, prev, cbw, bwGate []int64, pc int64) {
	p, prev, cbw, bwGate = p[:len(c)], prev[:len(c)], cbw[:len(c)], bwGate[:len(c)]
	for w := range c {
		c[w] = max(p[w]+pc, prev[w], cbw[w]+1+bwGate[w])
	}
}

// decomposeLat is the shared per-instruction latency decomposition
// (csr.go's buildTables and the window evaluator agree by
// construction: both call this shape of code with the same inputs).
func decomposeLat(info *InstInfo, dl1, l2, mem, tlb int64) (base, d1, dm, sh, lg, ic int64) {
	op := info.Op
	switch {
	case op.IsMem():
		d1 = dl1
		if info.DTLBMiss {
			dm += tlb
		}
		switch info.DataLevel {
		case cache.LevelL2:
			dm += l2
		case cache.LevelMem:
			dm += mem
		}
	case op.IsShortALU():
		sh = 1
	case op.IsLongALU():
		lg = BaseExecLat(op)
	default:
		base = BaseExecLat(op)
	}
	if info.ITLBMiss {
		ic = tlb
	}
	switch info.ILevel {
	case cache.LevelL2:
		ic += l2
	case cache.LevelMem:
		ic += mem
	}
	return
}

// ExecTimes returns, per lane, the execution time of everything
// folded so far: the last commit time plus one (zero before any
// instructions).
func (we *WindowEval) ExecTimes() []int64 {
	out := make([]int64, len(we.none))
	if we.n == 0 {
		return out
	}
	for w, c := range we.row(we.c, we.n-1) {
		out[w] = c + 1
	}
	return out
}
