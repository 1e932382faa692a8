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
// SearchKLimited composes them: candidates are ranked by LB_Keogh, pruned
// against the best-so-far exact DTW, and refined with an early-abandoning DP.
package dtw

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/lifecycle"
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

// Result is one DTW nearest neighbour.
type Result struct {
	// Index is the candidate's position in the searched collection.
	Index int
	// Dist is the exact DTW distance.
	Dist float64
}

// Stats reports the filter-and-refine work of one SearchKLimited.
type Stats struct {
	// LBComputed counts LB_Keogh evaluations (always = collection size).
	LBComputed int
	// FullDTW counts candidates whose exact DTW was computed (not pruned
	// by the bound cascade).
	FullDTW int
	// Abandoned counts DTW computations cut short by early abandoning.
	Abandoned int
}

// Scratch is the mutable state of one DTW search: the kernel's two rolling
// band rows, the query envelope, the LB_Keogh-ranked candidate list and a
// buffer for the caller's collection of row views.
//
// Ownership follows knn.Scratch: a Scratch comes from a process-wide pool
// (Get) and goes back when the search returns (Release, on every path).
// Nothing reachable from it may outlive the search that holds it — the
// neighbours a search returns are freshly allocated for that reason — and
// Release drops the collection's row views so a pooled Scratch pins no
// store.
type Scratch struct {
	dp    []uint64 // two band-relative DP rows as float64 bit patterns
	env   Envelope
	cands []lbCand
	coll  [][]float64
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get returns a Scratch for one search. The caller must Release it.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Release returns s to the pool. s, and the slice Collection handed out,
// must not be used afterwards.
func (s *Scratch) Release() {
	clear(s.coll[:cap(s.coll)])
	pool.Put(s)
}

// Collection returns an empty collection with room for n sequences, for the
// caller to append row views to and pass to SearchKLimited.
func (s *Scratch) Collection(n int) [][]float64 {
	s.coll = slices.Grow(s.coll[:0], n)
	return s.coll
}

// SearchKLimited returns the k nearest neighbours of query under DTW with
// band radius r, sorted by increasing distance, using the LB_Keogh →
// early-abandon-DTW cascade — the paper's filter-and-refine structure (§8).
// It runs under a request-lifecycle gate: each LB_Keogh evaluation is a
// gated scan unit and each exact DTW a gated refinement unit, so
// cancellation aborts within a bounded number of distance computations and
// budget exhaustion returns the best-so-far neighbours with truncated=true.
// A nil gate never stops it. The collection is only read: its sequences may
// be views of stored rows.
func (s *Scratch) SearchKLimited(collection [][]float64, query []float64, r, k int, g *lifecycle.Gate) ([]Result, Stats, bool, error) {
	var st Stats
	if len(collection) == 0 {
		return nil, st, false, errors.New("dtw: empty collection")
	}
	if k < 1 {
		return nil, st, false, errors.New("dtw: k must be >= 1")
	}
	if err := g.Check(); err != nil {
		return nil, st, false, err
	}
	env := &s.env
	if err := env.fill(query, r); err != nil {
		return nil, st, false, err
	}
	// Grown to the collection's size up front, so the appends below never
	// leave the scratch's backing array.
	s.cands = slices.Grow(s.cands[:0], len(collection))
	cands := s.cands
	for i, x := range collection {
		if ok, gerr := g.Visit(); gerr != nil {
			return nil, st, false, gerr
		} else if !ok {
			break // budget exhausted: rank only the candidates bounded so far
		}
		if !g.Leaf() {
			break // ng leaf budget exhausted: best-so-far, flagged approximate
		}
		lb, err := lbKeogh(env, x)
		if err != nil {
			return nil, st, false, err
		}
		st.LBComputed++
		cands = append(cands, lbCand{idx: i, lb: lb})
	}
	// See vptree: a truncated filter phase still refines up to k candidates.
	if g.Truncated() {
		g.Grace(k)
	}
	// Increasing-LB order, ties by collection index: tightest candidates
	// first, deterministically.
	slices.SortFunc(cands, func(a, b lbCand) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		default:
			return 0
		}
	})
	// δ sampled-stop: refine only the first ⌈(1−δ)·n⌉ lb-sorted candidates
	// (never fewer than k); the first skipped entry's LB_Keogh is the proven
	// floor of everything skipped. No-op at δ=0.
	if cut := g.DeltaCut(len(cands), k); cut < len(cands) {
		g.MarkRelaxed(cands[cut].lb)
		cands = cands[:cut]
	}
	var best []Result
	worst := math.Inf(1)
	for _, c := range cands {
		// Strict cutoff: a candidate whose bound ties the current k-th
		// distance may still displace it under the canonical (Dist, Index)
		// tie order below. Under ε-relaxation the cutoff fires once the
		// bound exceeds worst/(1+ε); a cutoff that would not fire at ε=0
		// records the skipped bound as the proven floor.
		if len(best) >= k && c.lb > g.Relax(worst) {
			if c.lb <= worst {
				g.MarkRelaxed(c.lb)
			}
			break // every later candidate is bounded even further away
		}
		if ok, gerr := g.Exact(); gerr != nil {
			return nil, st, false, gerr
		} else if !ok {
			break // budget exhausted: keep the neighbours refined so far
		}
		st.FullDTW++
		bound := math.Inf(1)
		if len(best) >= k {
			bound = worst
		}
		d, abandoned, err := s.distance(collection[c.idx], query, r, bound)
		if err != nil {
			return nil, st, false, err
		}
		if abandoned {
			st.Abandoned++
			continue
		}
		// Insert in canonical (Dist, Index) order, keep k best: tied
		// distances rank by ascending collection index independently of
		// refinement order (the sharded gather merge relies on this).
		if best == nil {
			best = make([]Result, 0, min(k, len(cands))+1)
		}
		pos := len(best)
		for pos > 0 && (best[pos-1].Dist > d ||
			(best[pos-1].Dist == d && best[pos-1].Index > c.idx)) {
			pos--
		}
		best = append(best, Result{})
		copy(best[pos+1:], best[pos:])
		best[pos] = Result{Index: c.idx, Dist: d}
		if len(best) > k {
			best = best[:k]
		}
		if len(best) >= k {
			worst = best[len(best)-1].Dist
		}
	}
	return best, st, g.Truncated(), nil
}

// lbCand pairs a candidate index with its LB_Keogh value.
type lbCand struct {
	idx int
	lb  float64
}
