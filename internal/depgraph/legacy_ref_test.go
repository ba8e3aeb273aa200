package depgraph_test

// Test-only reference implementation of the pre-CSR ("legacy") graph
// layout and walks, kept verbatim in behaviour so the property tests
// can prove the flat CSR layout bit-identical and the benchmarks can
// measure the speedup against the real former code paths:
//
//   - legacyNodeTimes: the scalar forward recurrence re-deriving every
//     latency from InstInfo per instruction per idealization.
//   - legacyLatest: the backward pass enumerating explicit []Edge
//     in-edge lists (one allocation per node visit) from
//     legacyInEdges, the flag-form edge enumeration.
//   - legacyEvalBatch: the 8-lane-capped AoS-parts batch kernel.
//
// Everything here uses only the exported Graph surface, exactly like
// the analysis packages did.

import (
	"icost/internal/cache"
	"icost/internal/depgraph"
)

const legacyWidth = 8

const legacyInf = int64(1) << 62

// legacyNodeTimes is the original runInto: one in-order pass, all
// latencies re-derived via DDLat/EPLat per instruction.
func legacyNodeTimes(g *depgraph.Graph, id depgraph.Ideal) *depgraph.Times {
	n := g.Len()
	t := &depgraph.Times{
		D: make([]int64, n), R: make([]int64, n), E: make([]int64, n),
		P: make([]int64, n), C: make([]int64, n),
	}
	cfg := &g.Cfg
	for i := 0; i < n; i++ {
		f := id.Of(i)

		var d int64
		if i > 0 {
			d = max(d, t.D[i-1]+g.DDLat(i, f))
			if g.Info[i-1].Mispredict && id.Of(i-1)&depgraph.IdealBMisp == 0 {
				d = max(d, t.P[i-1]+int64(cfg.BranchRecovery))
			}
		} else {
			d = g.DDLat(i, f)
		}
		if f&depgraph.IdealBW == 0 && i >= cfg.FetchBW {
			d = max(d, t.D[i-cfg.FetchBW]+1)
		}
		w := cfg.Window
		if f&depgraph.IdealWindow != 0 {
			w *= cfg.WindowIdealFactor
		}
		if i >= w {
			d = max(d, t.C[i-w])
		}
		t.D[i] = d

		r := d + int64(cfg.DispatchToReady)
		wake := int64(cfg.WakeupExtra)
		if p := g.Prod1[i]; p >= 0 {
			r = max(r, t.P[p]+wake)
		}
		if p := g.Prod2[i]; p >= 0 {
			r = max(r, t.P[p]+wake)
		}
		t.R[i] = r

		e := r
		if f&depgraph.IdealBW == 0 {
			e += int64(g.RELat[i])
		}
		t.E[i] = e

		p := e + g.EPLat(i, f)
		if l := g.PPLeader[i]; l >= 0 && f&depgraph.IdealDMiss == 0 {
			p = max(p, t.P[l])
		}
		t.P[i] = p

		c := p + int64(cfg.CompleteToCommit)
		if i > 0 {
			cc := t.C[i-1]
			if f&depgraph.IdealBW == 0 {
				cc += int64(g.CCLat[i])
			}
			c = max(c, cc)
		}
		if f&depgraph.IdealBW == 0 && i >= cfg.CommitBW {
			c = max(c, t.C[i-cfg.CommitBW]+1)
		}
		t.C[i] = c
	}
	return t
}

// legacyExecTime is the original ExecTime over legacyNodeTimes.
func legacyExecTime(g *depgraph.Graph, id depgraph.Ideal) int64 {
	n := g.Len()
	if n == 0 {
		return 0
	}
	return legacyNodeTimes(g, id).C[n-1] + 1
}

func legacyNodeTime(t *depgraph.Times, k depgraph.NodeKind, i int) int64 {
	switch k {
	case depgraph.NodeD:
		return t.D[i]
	case depgraph.NodeR:
		return t.R[i]
	case depgraph.NodeE:
		return t.E[i]
	case depgraph.NodeP:
		return t.P[i]
	default:
		return t.C[i]
	}
}

// legacyInEdges is the original flag-form InEdges: every latency
// re-derived via DDLat/EPLat, every edge gate a flag test.
func legacyInEdges(g *depgraph.Graph, i int, id depgraph.Ideal) []depgraph.Edge {
	type E = depgraph.Edge
	const (
		nD, nR, nE, nP, nC = depgraph.NodeD, depgraph.NodeR, depgraph.NodeE, depgraph.NodeP, depgraph.NodeC
	)
	f := id.Of(i)
	cfg := &g.Cfg
	var out []E
	// Into D.
	if i > 0 {
		out = append(out, E{Kind: depgraph.EdgeDD, FromInst: i - 1, FromNode: nD, ToInst: i, ToNode: nD, Lat: g.DDLat(i, f)})
		if g.Info[i-1].Mispredict && id.Of(i-1)&depgraph.IdealBMisp == 0 {
			out = append(out, E{Kind: depgraph.EdgePD, FromInst: i - 1, FromNode: nP, ToInst: i, ToNode: nD, Lat: int64(cfg.BranchRecovery)})
		}
	}
	if f&depgraph.IdealBW == 0 && i >= cfg.FetchBW {
		out = append(out, E{Kind: depgraph.EdgeFBW, FromInst: i - cfg.FetchBW, FromNode: nD, ToInst: i, ToNode: nD, Lat: 1})
	}
	w := cfg.Window
	if f&depgraph.IdealWindow != 0 {
		w *= cfg.WindowIdealFactor
	}
	if i >= w {
		out = append(out, E{Kind: depgraph.EdgeCD, FromInst: i - w, FromNode: nC, ToInst: i, ToNode: nD})
	}
	// Into R.
	out = append(out, E{Kind: depgraph.EdgeDR, FromInst: i, FromNode: nD, ToInst: i, ToNode: nR, Lat: int64(cfg.DispatchToReady)})
	if p := g.Prod1[i]; p >= 0 {
		out = append(out, E{Kind: depgraph.EdgePR, FromInst: int(p), FromNode: nP, ToInst: i, ToNode: nR, Lat: int64(cfg.WakeupExtra)})
	}
	if p := g.Prod2[i]; p >= 0 {
		out = append(out, E{Kind: depgraph.EdgePR, FromInst: int(p), FromNode: nP, ToInst: i, ToNode: nR, Lat: int64(cfg.WakeupExtra)})
	}
	// Into E.
	re := int64(0)
	if f&depgraph.IdealBW == 0 {
		re = int64(g.RELat[i])
	}
	out = append(out, E{Kind: depgraph.EdgeRE, FromInst: i, FromNode: nR, ToInst: i, ToNode: nE, Lat: re})
	// Into P.
	out = append(out, E{Kind: depgraph.EdgeEP, FromInst: i, FromNode: nE, ToInst: i, ToNode: nP, Lat: g.EPLat(i, f)})
	if l := g.PPLeader[i]; l >= 0 && f&depgraph.IdealDMiss == 0 {
		out = append(out, E{Kind: depgraph.EdgePP, FromInst: int(l), FromNode: nP, ToInst: i, ToNode: nP})
	}
	// Into C.
	out = append(out, E{Kind: depgraph.EdgePC, FromInst: i, FromNode: nP, ToInst: i, ToNode: nC, Lat: int64(cfg.CompleteToCommit)})
	if i > 0 {
		cc := int64(0)
		if f&depgraph.IdealBW == 0 {
			cc = int64(g.CCLat[i])
		}
		out = append(out, E{Kind: depgraph.EdgeCC, FromInst: i - 1, FromNode: nC, ToInst: i, ToNode: nC, Lat: cc})
	}
	if f&depgraph.IdealBW == 0 && i >= cfg.CommitBW {
		out = append(out, E{Kind: depgraph.EdgeCBW, FromInst: i - cfg.CommitBW, FromNode: nC, ToInst: i, ToNode: nC, Lat: 1})
	}
	return out
}

// legacyLatest is the original latestInto: explicit in-edge lists from
// legacyInEdges, one []Edge allocation per node visit.
func legacyLatest(g *depgraph.Graph, id depgraph.Ideal, t *depgraph.Times) *depgraph.Latest {
	n := g.Len()
	l := &depgraph.Latest{
		D: make([]int64, n), R: make([]int64, n), E: make([]int64, n),
		P: make([]int64, n), C: make([]int64, n),
	}
	at := func(k depgraph.NodeKind, i int) *int64 {
		switch k {
		case depgraph.NodeD:
			return &l.D[i]
		case depgraph.NodeR:
			return &l.R[i]
		case depgraph.NodeE:
			return &l.E[i]
		case depgraph.NodeP:
			return &l.P[i]
		default:
			return &l.C[i]
		}
	}
	for i := 0; i < n; i++ {
		l.D[i], l.R[i], l.E[i], l.P[i], l.C[i] = legacyInf, legacyInf, legacyInf, legacyInf, legacyInf
	}
	if n == 0 {
		return l
	}
	l.C[n-1] = t.C[n-1]
	for i := n - 1; i >= 0; i-- {
		for _, node := range [...]depgraph.NodeKind{depgraph.NodeC, depgraph.NodeP, depgraph.NodeE, depgraph.NodeR, depgraph.NodeD} {
			to := at(node, i)
			if *to == legacyInf {
				*to = legacyNodeTime(t, node, i)
			}
			for _, e := range legacyInEdges(g, i, id) {
				if e.ToNode != node {
					continue
				}
				src := at(e.FromNode, e.FromInst)
				if v := *to - e.Lat; v < *src {
					*src = v
				}
			}
		}
	}
	return l
}

// legacySlacks is the original Slacks: forward pass, backward pass,
// P-node latest minus actual.
func legacySlacks(g *depgraph.Graph, id depgraph.Ideal) []int64 {
	t := legacyNodeTimes(g, id)
	l := legacyLatest(g, id, t)
	out := make([]int64, g.Len())
	for i := range out {
		out[i] = l.P[i] - t.P[i]
	}
	return out
}

// legacyEPParts is the AoS latency decomposition of the legacy batch
// tables (one 48-byte struct per instruction).
type legacyEPParts struct {
	base, dl1, dmiss, short, long, icache int64
}

func legacyParts(g *depgraph.Graph, i int) legacyEPParts {
	var p legacyEPParts
	info := &g.Info[i]
	cfg := &g.Cfg
	op := info.Op
	switch {
	case op.IsMem():
		p.dl1 = int64(cfg.DL1Latency)
		if info.DTLBMiss {
			p.dmiss += int64(cfg.TLBMissLatency)
		}
		switch info.DataLevel {
		case cache.LevelL2:
			p.dmiss += int64(cfg.L2Latency)
		case cache.LevelMem:
			p.dmiss += int64(cfg.L2Latency) + int64(cfg.MemLatency)
		}
	case op.IsShortALU():
		p.short = 1
	case op.IsLongALU():
		p.long = depgraph.BaseExecLat(op)
	default:
		p.base = depgraph.BaseExecLat(op)
	}
	if info.ITLBMiss {
		p.icache = int64(cfg.TLBMissLatency)
	}
	switch info.ILevel {
	case cache.LevelL2:
		p.icache += int64(cfg.L2Latency)
	case cache.LevelMem:
		p.icache += int64(cfg.L2Latency) + int64(cfg.MemLatency)
	}
	return p
}

type legacyLaneConsts struct {
	bw, ic, dl1, dm, sh, lg bool
	bm                      bool
	win                     int
}

func legacyLaneOf(cfg *depgraph.Config, f depgraph.Flags) legacyLaneConsts {
	l := legacyLaneConsts{
		bw:  f&depgraph.IdealBW == 0,
		ic:  f&depgraph.IdealICache == 0,
		dl1: f&depgraph.IdealDL1 == 0,
		dm:  f&depgraph.IdealDMiss == 0,
		sh:  f&depgraph.IdealShortALU == 0,
		lg:  f&depgraph.IdealLongALU == 0,
		bm:  f&depgraph.IdealBMisp == 0,
		win: cfg.Window,
	}
	if f&depgraph.IdealWindow != 0 {
		l.win *= cfg.WindowIdealFactor
	}
	return l
}

// legacyEvalBatch is the original const-8-lane batch evaluator (the
// global-only kernel; the reference tests use global lanes, which is
// also the kernel the engine's warm path ran).
func legacyEvalBatch(g *depgraph.Graph, ids []depgraph.Ideal) []int64 {
	n := g.Len()
	out := make([]int64, len(ids))
	if len(ids) == 0 || n == 0 {
		return out
	}
	parts := make([]legacyEPParts, n)
	mispPrev := make([]bool, n)
	for i := 0; i < n; i++ {
		parts[i] = legacyParts(g, i)
		if i > 0 {
			mispPrev[i] = g.Info[i-1].Mispredict
		}
	}
	for s := 0; s < len(ids); s += legacyWidth {
		e := s + legacyWidth
		if e > len(ids) {
			e = len(ids)
		}
		legacyEvalChunk(g, parts, mispPrev, ids[s:e], out[s:e])
	}
	return out
}

func legacyEvalChunk(g *depgraph.Graph, pp []legacyEPParts, mp []bool, ids []depgraph.Ideal, out []int64) {
	const W = legacyWidth
	n := g.Len()
	D := make([]int64, n*W)
	P := make([]int64, n*W)
	C := make([]int64, n*W)
	lanes4 := ids
	if len(ids) < W {
		var pad [W]depgraph.Ideal
		copy(pad[:], ids)
		for k := len(ids); k < W; k++ {
			pad[k] = ids[0]
		}
		lanes4 = pad[:]
	}
	cfg := &g.Cfg
	dr := int64(cfg.DispatchToReady)
	pc := int64(cfg.CompleteToCommit)
	rec := int64(cfg.BranchRecovery)
	wake := int64(cfg.WakeupExtra)
	fbw, cbw := cfg.FetchBW, cfg.CommitBW
	ddB, reL, ccL := g.DDBreak, g.RELat, g.CCLat
	pr1, pr2, ld := g.Prod1, g.Prod2, g.PPLeader

	var lanes [W]legacyLaneConsts
	var winOff [W]int
	for w := range lanes {
		lanes[w] = legacyLaneOf(cfg, lanes4[w].Global)
		winOff[w] = lanes[w].win * W
	}

	for i := 0; i < n; i++ {
		ep := &pp[i]
		ddBreak := int64(ddB[i])
		reLat := int64(reL[i])
		ccLat := int64(ccL[i])
		p1Row, p2Row, leadRow := int(pr1[i])*W, int(pr2[i])*W, int(ld[i])*W
		misp := mp[i]
		base := i * W
		prev := base - W
		fbwRow, cbwRow := base-fbw*W, base-cbw*W
		for w := 0; w < W; w++ {
			ln := &lanes[w]
			var dd int64
			if ln.bw {
				dd = ddBreak
			}
			if ln.ic {
				dd += ep.icache
			}
			d := dd
			if i > 0 {
				d += D[prev+w]
				if misp && ln.bm {
					if v := P[prev+w] + rec; v > d {
						d = v
					}
				}
			}
			if ln.bw && fbwRow >= 0 {
				if v := D[fbwRow+w] + 1; v > d {
					d = v
				}
			}
			if wr := base - winOff[w]; wr >= 0 {
				if v := C[wr+w]; v > d {
					d = v
				}
			}
			D[base+w] = d

			r := d + dr
			if p1Row >= 0 {
				if v := P[p1Row+w] + wake; v > r {
					r = v
				}
			}
			if p2Row >= 0 {
				if v := P[p2Row+w] + wake; v > r {
					r = v
				}
			}

			e := r
			if ln.bw {
				e += reLat
			}

			p := e + ep.base
			if ln.dl1 {
				p += ep.dl1
			}
			if ln.dm {
				p += ep.dmiss
			}
			if ln.sh {
				p += ep.short
			}
			if ln.lg {
				p += ep.long
			}
			if leadRow >= 0 && ln.dm {
				if v := P[leadRow+w]; v > p {
					p = v
				}
			}
			P[base+w] = p

			c := p + pc
			if i > 0 {
				cc := C[prev+w]
				if ln.bw {
					cc += ccLat
				}
				if cc > c {
					c = cc
				}
			}
			if ln.bw && cbwRow >= 0 {
				if v := C[cbwRow+w] + 1; v > c {
					c = v
				}
			}
			C[base+w] = c
		}
	}
	for w := range ids {
		out[w] = C[(n-1)*W+w] + 1
	}
}
