package depgraph_test

// Property tests for the flat CSR layout: on real simulated
// microexecutions (every benchmark × several seeds), every analysis
// surface — ExecTime, NodeTimes, Slacks, EvalBatch — must be
// bit-identical to the legacy layout's walks (legacy_ref_test.go),
// across global, union and per-instruction idealizations.

import (
	"context"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/rng"
	"icost/internal/workload"
)

// buildBenchGraph simulates n instructions of the named benchmark and
// returns the built dependence graph.
func buildBenchGraph(tb testing.TB, bench string, seed uint64, n int) *ooo.Result {
	tb.Helper()
	w, err := workload.Cached(bench, seed)
	if err != nil {
		tb.Fatalf("workload %s: %v", bench, err)
	}
	tr := w.MustExecute(n, seed+1)
	res, err := ooo.Run(tr, ooo.DefaultConfig())
	if err != nil {
		tb.Fatalf("simulate %s: %v", bench, err)
	}
	return res
}

// propertyCase is one idealization under test plus the index of the
// binary case whose legacy-oracle answer it must reproduce. The
// oracle knows only flags, so a scaled variant is checked against its
// binary equivalent: α=0 on every selected category is the binary
// idealization itself, AlphaOne on every category is the baseline.
type propertyCase struct {
	id  depgraph.Ideal
	ref int
}

// propertyIdeals is the idealization set the properties quantify over:
// the empty set, every base category, representative unions, the full
// union, and seeded per-instruction masks — each also as an α=0 vector
// variant (α=0 on its selected categories, AlphaOne on the rest, which
// the semantics ignore) and as an all-AlphaOne variant that must equal
// the baseline.
func propertyIdeals(r *rng.Rand, n int) []propertyCase {
	ids := []depgraph.Ideal{{}}
	for b := 0; b < depgraph.NumFlags; b++ {
		ids = append(ids, depgraph.Ideal{Global: 1 << b})
	}
	ids = append(ids,
		depgraph.Ideal{Global: depgraph.IdealDL1 | depgraph.IdealDMiss},
		depgraph.Ideal{Global: depgraph.IdealBMisp | depgraph.IdealWindow | depgraph.IdealBW},
		depgraph.Ideal{Global: depgraph.AllFlags},
	)
	for k := 0; k < 2; k++ {
		per := make([]depgraph.Flags, n)
		for i := range per {
			if r.Bool(0.25) {
				per[i] = depgraph.Flags(r.Uint64()) & depgraph.AllFlags
			}
		}
		ids = append(ids, depgraph.Ideal{Global: depgraph.Flags(r.Uint64()) & depgraph.AllFlags, PerInst: per})
	}
	cases := make([]propertyCase, 0, 3*len(ids))
	for k, id := range ids {
		used := id.Global
		for _, f := range id.PerInst {
			used |= f
		}
		zero, one := id, id
		zero.Scale = depgraph.ScaleUniform(depgraph.AllFlags&^used, depgraph.AlphaOne)
		one.Scale = depgraph.ScaleUniform(depgraph.AllFlags, depgraph.AlphaOne)
		cases = append(cases, propertyCase{id, 3 * k}, propertyCase{zero, 3 * k}, propertyCase{one, 0})
	}
	return cases
}

func sameTimes(t *testing.T, bench string, seed uint64, id depgraph.Ideal, got, want *depgraph.Times) {
	t.Helper()
	cols := []struct {
		name      string
		got, want []int64
	}{
		{"D", got.D, want.D}, {"R", got.R, want.R}, {"E", got.E, want.E},
		{"P", got.P, want.P}, {"C", got.C, want.C},
	}
	for _, c := range cols {
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s seed %d ideal %v: %s[%d] = %d, legacy %d",
					bench, seed, id, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestCSRBitIdenticalAcrossBenches is the headline property: the CSR
// walks equal the legacy walks bit for bit on every benchmark × 3
// seeds, for exec times, node times, slacks and batched evaluation.
func TestCSRBitIdenticalAcrossBenches(t *testing.T) {
	const n = 2500
	ctx := context.Background()
	for _, bench := range workload.Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			res := buildBenchGraph(t, bench, seed, n)
			g := res.Graph
			r := rng.New(seed * 977)
			cases := propertyIdeals(r, g.Len())

			var globals, globalRefs []depgraph.Ideal
			for _, c := range cases {
				if c.id.PerInst == nil {
					globals = append(globals, c.id)
					globalRefs = append(globalRefs, cases[c.ref].id)
				}
			}
			batch, err := g.EvalBatch(ctx, globals)
			if err != nil {
				t.Fatalf("%s seed %d: EvalBatch: %v", bench, seed, err)
			}
			legacyBatch := legacyEvalBatch(g, globalRefs)
			for k := range globals {
				if batch[k] != legacyBatch[k] {
					t.Fatalf("%s seed %d ideal %v: EvalBatch %d, legacy %d",
						bench, seed, globals[k], batch[k], legacyBatch[k])
				}
			}

			// The legacy oracle runs once per binary case; the scaled
			// variants that follow it reuse its answer.
			legacyT := make([]*depgraph.Times, len(cases))
			legacySl := make([][]int64, len(cases))
			for k, c := range cases {
				if c.ref == k {
					legacyT[k], legacySl[k] = legacyNodeTimes(g, c.id), legacySlacks(g, c.id)
				}
				wantT, wantSl := legacyT[c.ref], legacySl[c.ref]
				id := c.id
				if got, want := g.ExecTime(id), wantT.C[g.Len()-1]+1; got != want {
					t.Fatalf("%s seed %d ideal %v: ExecTime %d, legacy %d",
						bench, seed, id, got, want)
				}
				sameTimes(t, bench, seed, id, g.NodeTimes(id), wantT)
				gotSl := g.Slacks(id)
				for i := range wantSl {
					if gotSl[i] != wantSl[i] {
						t.Fatalf("%s seed %d ideal %v: Slacks[%d] = %d, legacy %d",
							bench, seed, id, i, gotSl[i], wantSl[i])
					}
				}
			}
			depgraph.ReleaseTimes(res.Times)
			g.Release()
		}
	}
}

// TestCSRBitIdenticalWideLanes re-proves batch bit-exactness at every
// legal configured lane width, including widths above the old 8-lane
// cap, over a real microexecution.
func TestCSRBitIdenticalWideLanes(t *testing.T) {
	res := buildBenchGraph(t, "gcc", 5, 3000)
	defer func() { depgraph.ReleaseTimes(res.Times); res.Graph.Release() }()
	base := res.Graph

	var ids []depgraph.Ideal
	for f := depgraph.Flags(0); f < 40; f++ {
		ids = append(ids, depgraph.Ideal{Global: f & depgraph.AllFlags})
	}
	want := legacyEvalBatch(base, ids)
	for _, lanes := range []int{1, 2, 4, 8, 16, 32, 64} {
		cfg := base.Cfg
		cfg.Lanes = lanes
		if err := cfg.Validate(); err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		g := base.WithConfig(cfg)
		got, err := g.EvalBatch(context.Background(), ids)
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("lanes %d ideal %v: %d, legacy %d", lanes, ids[k], got[k], want[k])
			}
		}
	}
}

// TestLanesValidation pins the Config.Lanes contract: 0 is auto, legal
// widths are powers of two up to 64, everything else is rejected.
func TestLanesValidation(t *testing.T) {
	for _, lanes := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		cfg := depgraph.DefaultConfig()
		cfg.Lanes = lanes
		if err := cfg.Validate(); err != nil {
			t.Fatalf("lanes %d: unexpected error %v", lanes, err)
		}
	}
	for _, lanes := range []int{-1, 3, 5, 6, 7, 12, 24, 65, 128} {
		cfg := depgraph.DefaultConfig()
		cfg.Lanes = lanes
		if err := cfg.Validate(); err == nil {
			t.Fatalf("lanes %d: want validation error", lanes)
		}
	}
}
