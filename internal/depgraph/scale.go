package depgraph

import "math/bits"

// Parametric (scale-by-α) idealization. The paper's idealizations are
// binary: an event class is either fully present or fully removed
// (latency → 0, Table 1). The sensitivity line of related work
// instead measures *response curves* — scale a resource's latency by
// a factor α and watch execution time respond. This file adds that
// middle ground: every flagged category carries a scale factor
// α ∈ [0,1], where α=0 reproduces the zero-out flags bit for bit and
// α=1 reproduces the unidealized machine bit for bit.
//
// Representation. α is fixed-point with an 8-bit fraction (Alpha,
// denominator AlphaOne=256), so scaled latencies are integers, walks
// stay integer-exact and reproducible across platforms, and a scale
// vector is a comparable array usable as a memo key. A latency scales
// as round(lat·α) = (lat·m + 128) >> 8, which is exact at both
// endpoints: m=256 yields lat, m=0 yields 0.
//
// Semantics per category:
//
//   - latency components (dl1, dmiss, imiss, shalu, lgalu and the
//     bw contention columns DDBreak/RELat/CCLat) scale continuously;
//   - the win category interpolates the effective re-order window
//     between Window (α=1) and Window×WindowIdealFactor (α=0);
//   - structural zero/unit-latency edges tied to a category (the PP
//     line-sharing edge of dmiss, the FBW/CBW unit edges of bw) stay
//     active for α>0 and vanish only at α=0, matching the binary
//     idealization at the endpoint;
//   - the PD branch-recovery edge scales its latency for α>0 and is
//     dropped at α=0 ("the branch predicts correctly"), again matching
//     the binary endpoint.
//
// Binary idealization is the α=0 end of this scale, not a second
// model: every walk kernel (the scalar forward walk, the lane walk,
// the backward walk, InEdges and the windowed fold) runs in
// multiplier form over one lane type. A selected binary flag gets
// multiplier 0, a selected scaled flag its α, an unselected flag
// AlphaOne, and scaleLat is exact at both endpoints, so the 12 edge
// rules of paper Table 3 are written once per walk shape.

// alphaBits is the fixed-point fraction width of Alpha; alphaHalf the
// rounding term of scaleLat.
const (
	alphaBits = 8
	alphaHalf = 1 << (alphaBits - 1)
)

// Alpha is a fixed-point scale factor in [0,1]: 0 means fully
// idealized (the binary zero-out), AlphaOne means unscaled. Values
// above AlphaOne clamp to AlphaOne.
type Alpha uint16

// AlphaOne is α = 1.0 (no idealization of the flagged category).
const AlphaOne Alpha = 1 << alphaBits

// AlphaOf quantizes x ∈ [0,1] to the nearest representable Alpha,
// clamping outside the interval.
func AlphaOf(x float64) Alpha {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return AlphaOne
	}
	return Alpha(x*float64(AlphaOne) + 0.5)
}

// Float returns the α value as a float64 in [0,1].
func (a Alpha) Float() float64 {
	if a > AlphaOne {
		a = AlphaOne
	}
	return float64(a) / float64(AlphaOne)
}

// mult is the clamped integer multiplier of a.
func (a Alpha) mult() int64 {
	if a > AlphaOne {
		a = AlphaOne
	}
	return int64(a)
}

// scaleLat scales a latency by a fixed-point multiplier m ∈
// [0, AlphaOne] with round-to-nearest: exact at both endpoints and
// monotone in both arguments.
func scaleLat(lat, m int64) int64 {
	return (lat*m + alphaHalf) >> alphaBits
}

// ScaleLatency returns round(lat·α) with the same fixed-point
// rounding the scaled kernels use, so callers deriving machine
// configurations from an α (the refutation harness, sweeps) land on
// exactly the latency the graph model assumes.
func ScaleLatency(lat int, a Alpha) int {
	return int(scaleLat(int64(lat), a.mult()))
}

// ScaleVec assigns one Alpha per base category, indexed by flag bit.
// The zero value is all-α=0 — i.e. plain zero-out flags — so every
// existing Ideal literal keeps its exact meaning. An entry is only
// consulted for categories selected by the idealization's flags.
type ScaleVec [NumFlags]Alpha

// IsZero reports whether every entry is zero, i.e. the idealization
// is the binary zero-out.
func (s ScaleVec) IsZero() bool { return s == ScaleVec{} }

// of returns the entry of category fl (a single flag).
func (s *ScaleVec) of(fl Flags) Alpha { return s[bits.TrailingZeros16(uint16(fl))] }

// ScaleUniform builds a vector assigning α to every category in f.
func ScaleUniform(f Flags, a Alpha) ScaleVec {
	var s ScaleVec
	for b := 0; b < NumFlags; b++ {
		if f&(1<<b) != 0 {
			s[b] = a
		}
	}
	return s
}

// CanonScale zeroes the entries of categories outside mask: two
// idealizations whose vectors differ only on unselected categories
// are semantically identical, and memo keys built from the canonical
// vector (plus the flags) never split or — with the flags — collide.
func CanonScale(mask Flags, s ScaleVec) ScaleVec {
	var out ScaleVec
	for b := 0; b < NumFlags; b++ {
		if mask&(1<<b) != 0 {
			a := s[b]
			if a > AlphaOne {
				a = AlphaOne
			}
			out[b] = a
		}
	}
	return out
}

// EffWindow is the effective re-order window under win-category scale
// α: Window at α=1, Window×WindowIdealFactor at α=0, rounded linear
// interpolation between.
func (c *Config) EffWindow(a Alpha) int {
	w := c.Window
	ideal := w * c.WindowIdealFactor
	return w + int(scaleLat(int64(ideal-w), AlphaOne.mult()-a.mult()))
}

// lane is one idealization resolved against a configuration: a
// latency multiplier per component (AlphaOne for unselected
// categories, 0 for binary-selected ones, the α of scaled ones) and
// the effective re-order window. Edge gates derive from the
// multipliers: a structural edge tied to a category is active iff its
// multiplier is nonzero.
type lane struct {
	bwM, icM, dl1M, dmM, shM, lgM, recM int64
	win                                 int
}

// multOf is the multiplier of category fl (a single flag) under
// flags f.
func multOf(f Flags, s *ScaleVec, fl Flags) int64 {
	if f&fl == 0 {
		return int64(AlphaOne)
	}
	return s.of(fl).mult()
}

// laneOf resolves the lane of one (flags, scale) idealization.
func laneOf(cfg *Config, f Flags, s *ScaleVec) lane {
	l := lane{
		dl1M: multOf(f, s, IdealDL1),
		dmM:  multOf(f, s, IdealDMiss),
		icM:  multOf(f, s, IdealICache),
		recM: multOf(f, s, IdealBMisp),
		bwM:  multOf(f, s, IdealBW),
		shM:  multOf(f, s, IdealShortALU),
		lgM:  multOf(f, s, IdealLongALU),
		win:  cfg.Window,
	}
	if f&IdealWindow != 0 {
		l.win = cfg.EffWindow(s.of(IdealWindow))
	}
	return l
}
