package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lifecycle"
)

// ErrBadApprox is wrapped by every Approx validation failure, so serving
// layers can map mutually inconsistent quality parameters onto a structured
// 400 instead of a 500.
var ErrBadApprox = errors.New("core: invalid approximation spec")

// Approx is the quality dial of a request: how much answer quality the
// caller trades for latency. The zero value is exact search — bit for bit
// the same path, results and stats as a request without a spec (proven by
// the property suite in approx_test.go).
//
// Two modes, following the δ-ε / ng taxonomy of the approximate-similarity-
// search literature (see docs/approx.md):
//
//   - δ-ε-approximate (Epsilon, Delta): the search discards an object only
//     when a kernel lower bound proves it is ≥ bound/(1+ε) away, so every
//     reported distance is within (1+ε) of the true distance at its rank —
//     deterministically for δ = 0, and with probability ≥ 1−δ under the
//     uniform-rank model when δ > 0 additionally skips the tail of the
//     lb-sorted refinement list.
//   - ng-approximate (NProbe): traversal stops after NProbe leaf units with
//     no guarantee at all; the response reports an unbounded BoundGap.
//
// Either way Response.Approximate, EpsilonUsed and the per-result BoundGap
// report how tight the answer provably is.
type Approx struct {
	// Epsilon ≥ 0 is the (1+ε) approximation slack (0 = exact).
	Epsilon float64
	// Delta ∈ [0, 1] is the sampled-stop fraction (0 = deterministic).
	Delta float64
	// NProbe ≥ 0 is the ng-approximate leaf budget (0 = unlimited).
	NProbe int
}

// Enabled reports whether the spec requests any approximation at all.
func (a Approx) Enabled() bool { return a.Epsilon > 0 || a.Delta > 0 || a.NProbe > 0 }

// Validate rejects mutually inconsistent quality parameters. Every error
// wraps ErrBadApprox.
func (a Approx) Validate() error {
	if math.IsNaN(a.Epsilon) || math.IsInf(a.Epsilon, 0) || a.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon must be a finite number >= 0, got %v", ErrBadApprox, a.Epsilon)
	}
	if math.IsNaN(a.Delta) || a.Delta < 0 || a.Delta > 1 {
		return fmt.Errorf("%w: delta must be in [0, 1], got %v", ErrBadApprox, a.Delta)
	}
	if a.NProbe < 0 {
		return fmt.Errorf("%w: nprobe must be >= 0, got %d", ErrBadApprox, a.NProbe)
	}
	return nil
}

// limits folds the spec into lifecycle limits.
func (a Approx) limits(l lifecycle.Limits) lifecycle.Limits {
	l.Epsilon = a.Epsilon
	l.Delta = a.Delta
	l.NProbe = a.NProbe
	return l
}

// stampApprox finalizes a response's approximation report from the gate
// that ran it: when any approximation decision was taken it sets
// Approximate, echoes the ε in force, publishes the gate's proven
// BoundFloor and computes every neighbour's BoundGap from it. Exact runs
// (no decision taken) leave the response untouched — all fields stay zero.
// The Envelope stamps a whole request (a scatter's merged response from the
// absorbed parent gate), QueryGated a shard's part of one.
func stampApprox(resp *Response, epsilon float64, g *lifecycle.Gate) {
	if resp == nil || !g.Approximate() {
		return
	}
	resp.Approximate = true
	resp.EpsilonUsed = epsilon
	floor := g.BoundFloor()
	if math.IsInf(floor, 1) || floor < 0 {
		floor = 0
	}
	resp.BoundFloor = floor
	applyBoundGaps(resp.Neighbors, floor)
}

// applyBoundGaps recomputes every neighbour's BoundGap against floor.
func applyBoundGaps(ns []Neighbor, floor float64) {
	for i := range ns {
		ns[i].BoundGap = boundGap(ns[i].Dist, floor)
	}
}

// boundGap returns the sound per-result error bound for a reported distance
// d against the proven bound floor: the true distance at that rank is
// ≥ min(d, floor), so the relative error d/true − 1 is at most
// max(0, d/floor − 1). A floor of 0 (ng stop — unexplored territory) yields
// +Inf: no guarantee. Serving layers encode the unbounded gap as −1.
func boundGap(d, floor float64) float64 {
	if floor <= 0 {
		return math.Inf(1)
	}
	gap := d/floor - 1
	if gap < 0 || math.IsNaN(gap) {
		gap = 0
	}
	return gap
}
