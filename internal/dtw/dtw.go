// Package dtw implements the paper's §8 extension: Dynamic Time Warping
// with linear-cost lower and upper bounds, so that the same
// filter-and-refine search pattern used for Euclidean distance (bound →
// prune → exact) applies to an expensive elastic measure.
//
//   - DTW is the classic dynamic program under a Sakoe–Chiba band of radius
//     r (r = 0 degenerates to Euclidean distance; computed on squared costs
//     with a square root at the end so the two scales agree).
//   - LB_Keogh [Keogh, VLDB'02 — the paper's citation [9]] lower-bounds DTW
//     in O(n) using the band envelope of the query.
//   - Euclidean distance upper-bounds DTW (the diagonal is a legal warping
//     path), the linear-cost upper bound the paper asks for; the tests hold
//     DTW between the two bounds, and no search uses the upper one yet.
//
// The package holds the kernels only. The search that composes them — every
// row bounded by LB_Keogh, then refined in bound order with an
// early-abandoning DTW — is fig. 11's filter and refine (package knn), which
// the engine's DTW query drives with LowerBound and Distance.
package dtw

import (
	"errors"
	"math"
	"slices"
	"sync"
)

// ErrLength is returned when inputs have mismatched or empty lengths.
var ErrLength = errors.New("dtw: sequences must be non-empty and equal length")

// ErrBand is returned for a negative band radius.
var ErrBand = errors.New("dtw: band radius must be >= 0")

// infBits is the bit pattern of +Inf. The DP rows hold float64 bit
// patterns: every finite cell value is ≥ +0, so unsigned integer order on
// the patterns is float order, +Inf sorts above every finite value and every
// NaN (either sign) sorts above +Inf. An integer min seeded with infBits
// therefore picks exactly what the float chain `best := +Inf; if x < best
// { best = x }` picks — a NaN predecessor is skipped — without a branch the
// data can mispredict.
const infBits = 0x7FF0000000000000

// distance is the banded DTW kernel. It costs its band: row i of the DP
// touches only the ≤ 2r+1 cells with |i−j| ≤ r, stored band-relative
// (slot k+1 holds cell j = i−r+k, so a cell's three predecessors are
// cur[k], prev[k+1] and prev[k+2] whatever the row) in two rolling rows of
// 2r+3 slots from the scratch. Slot 0 and slot 2r+2 are never written and
// stay +Inf, as does every slot a clipped first or last row skips, so
// predecessors outside the band or the matrix read +Inf with no reset and
// no boundary test; the virtual cell (−1, −1) = 0 seeds the origin.
//
// Per cell it performs the reference DP's operations — min over (left, up,
// diagonal) skipping NaN, one add, the running row minimum — and per row the
// same `rowMin > limit` abandon test, so distances and abandon decisions are
// bit-identical to the full-row DP kept in dtw_test.go.
func (s *Scratch) distance(a, b []float64, r int, bound float64) (float64, bool, error) {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0, false, ErrLength
	}
	if r < 0 {
		return 0, false, ErrBand
	}
	if r >= n {
		r = n - 1
	}
	limit := math.Inf(1)
	if !math.IsInf(bound, 1) {
		limit = bound * bound
	}

	w := 2*r + 3
	s.dp = slices.Grow(s.dp[:0], 2*w)[:2*w]
	prev, cur := s.dp[:w], s.dp[w:]
	for k := range prev {
		prev[k], cur[k] = infBits, infBits
	}
	prev[r+1] = 0 // cell (−1, −1): the diagonal predecessor of (0, 0)
	var last uint64
	for i, ai := range a {
		// Band slots klo..khi are the ones whose column i−r+k is in [0, n).
		klo, khi := max(0, r-i), min(2*r, n-1-i+r)
		bs := b[i-r+klo : i-r+khi+1]
		c := cur[klo+1:][:len(bs)]
		p := prev[klo+1:][:len(bs)+1]
		left, rowMin := uint64(infBits), uint64(infBits)
		diag := p[0]
		for t, bv := range bs {
			up := p[t+1]
			best := min(uint64(infBits), up, diag, left)
			d := ai - bv
			v := math.Float64bits(math.Float64frombits(best) + d*d)
			c[t] = v
			rowMin = min(rowMin, v)
			left, diag = v, up
		}
		last = left
		if math.Float64frombits(rowMin) > limit {
			return math.Inf(1), true, nil
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(math.Float64frombits(last)), false, nil
}

// Envelope holds the running min/max of a sequence over the band window —
// the U and L curves of LB_Keogh.
type Envelope struct {
	Upper, Lower []float64
	// R is the band radius the envelope was built for.
	R int
}

// fill rebuilds e for (q, r), reusing its slices.
func (e *Envelope) fill(q []float64, r int) error {
	n := len(q)
	if n == 0 {
		return ErrLength
	}
	if r < 0 {
		return ErrBand
	}
	e.Upper = slices.Grow(e.Upper[:0], n)[:n]
	e.Lower = slices.Grow(e.Lower[:0], n)[:n]
	e.R = r
	// O(n·r) sliding window; r is small relative to n in practice. A deque
	// would make it O(n) but profiling shows envelope construction is not
	// on the search hot path (built once per query).
	for i := 0; i < n; i++ {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		u, l := q[lo], q[lo]
		for j := lo + 1; j <= hi; j++ {
			if q[j] > u {
				u = q[j]
			}
			if q[j] < l {
				l = q[j]
			}
		}
		e.Upper[i], e.Lower[i] = u, l
	}
	return nil
}

// lbKeogh returns the LB_Keogh lower bound on DTW(q, x, r) where e is the
// envelope of q at radius r: points of x outside [L, U] contribute their
// squared excursion.
//
// The loop has no data-dependent branch: of v−U and L−v at most one is
// positive, `bits−1 < infBits` is true exactly for the patterns of (0, +Inf]
// (zero, negatives and NaN fail it), and a point inside the envelope adds
// +0, which leaves the non-negative sum unchanged. The terms and their order
// are those of the three-way switch it replaces, so the bound is
// bit-identical; what is left is the latency of one add per element.
func lbKeogh(e *Envelope, x []float64) (float64, error) {
	if len(x) != len(e.Upper) {
		return 0, ErrLength
	}
	upper, lower := e.Upper[:len(x)], e.Lower[:len(x)]
	sum := 0.0
	for i, v := range x {
		above := math.Float64bits(v - upper[i])
		below := math.Float64bits(lower[i] - v)
		var m uint64
		if below-1 < infBits {
			m = below
		}
		if above-1 < infBits {
			m = above
		}
		d := math.Float64frombits(m)
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// Scratch is the mutable state of one DTW search: the query and its
// envelope, the kernel's two rolling band rows, and the caller's row views.
//
// Ownership follows knn.Scratch: a Scratch comes from a process-wide pool
// (Get) and goes back when the search returns (Release, on every path).
// Nothing reachable from it may outlive the search that holds it, and
// Release drops the query and the row views so a pooled Scratch pins no
// store.
type Scratch struct {
	dp   []uint64 // two band-relative DP rows as float64 bit patterns
	q    []float64
	env  Envelope
	rows [][]float64
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get returns a Scratch for one search. The caller must Release it.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Release returns s to the pool. s, and the slice Rows handed out, must not
// be used afterwards.
func (s *Scratch) Release() {
	s.q = nil
	clear(s.rows[:cap(s.rows)])
	pool.Put(s)
}

// Query makes q, at band radius r, the query LowerBound and Distance
// measure against, and builds its envelope. q is only read, and must stay
// unchanged until Release.
func (s *Scratch) Query(q []float64, r int) error {
	if err := s.env.fill(q, r); err != nil {
		return err
	}
	s.q = q
	return nil
}

// LowerBound returns LB_Keogh of x against the query's envelope: a lower
// bound on Distance(x, ·).
func (s *Scratch) LowerBound(x []float64) (float64, error) { return lbKeogh(&s.env, x) }

// Distance returns the banded DTW distance between x and the query, or
// (+Inf, true) once it is proved above bound (see distance). x is the DP's
// row sequence.
func (s *Scratch) Distance(x []float64, bound float64) (float64, bool, error) {
	return s.distance(x, s.q, s.env.R, bound)
}

// Rows returns n slots for the caller's row views, for the rows a search
// measures to be kept between its passes; Release drops them.
func (s *Scratch) Rows(n int) [][]float64 {
	s.rows = slices.Grow(s.rows[:0], n)[:n]
	return s.rows
}
