// Package knn is fig. 11, the compressed-feature k-nearest-neighbour search:
// collecting candidates while maintaining σ_UB, the k-th smallest upper bound
// seen; discarding the candidates whose lower bound exceeds it; and refining
// the survivors in increasing lower-bound order against the full sequences,
// with early abandoning. Scan is the search the engines serve: every feature
// of an arena in sequence-ID order, in blocks. Package vptree's walk (the
// paper's tree, which figs. 22–23 measure) is the other candidate source; it
// collects into and refines from the same Scratch.
//
// Scratch ownership: a Scratch comes from a process-wide pool (Get) and goes
// back when the search returns (Release). Nothing reachable from it — the
// candidate list, the σ_UB heap, the kernel output buffers, the read buffer
// — may outlive the search that holds it; the neighbours Refine returns are
// freshly allocated for exactly that reason.
package knn

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
)

// Result is one neighbour: the sequence ID and its exact Euclidean distance.
type Result struct {
	ID   int
	Dist float64
}

// candidate is a compressed object that survived traversal.
type candidate struct {
	id     int
	lb, ub float64
}

// Scratch is the mutable state of one search.
type Scratch struct {
	k     int
	cands []candidate
	// early counts the candidates Add did not keep (see Add); Filter reports
	// them with the ones it drops itself.
	early   int
	ubTop   []float64 // max-heap of the k smallest upper bounds seen
	sigmaUB float64
	// seed is the radius Refine's k-th best distance starts from, and
	// seedLB the one σ_UB and every lower-bound test start from (see Seed);
	// both +Inf unless seeded.
	seed, seedLB float64
	// spare and counts are Filter's ordering buffers (see order).
	spare  []candidate
	counts []int32
	// lb/ub are the block kernel's output buffers (see BoundBufs).
	lb, ub []float64
	// row receives full sequences from stores without row views.
	row []float64
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get returns a Scratch ready for one k-NN search. The caller must Release
// it when the search returns, on every path.
func Get(k int) *Scratch {
	s := pool.Get().(*Scratch)
	s.k = k
	s.cands = s.cands[:0]
	s.early = 0
	s.ubTop = s.ubTop[:0]
	s.sigmaUB = math.Inf(1)
	s.seed, s.seedLB = math.Inf(1), math.Inf(1)
	return s
}

// Seed starts the search of series of length n from the radius of
// lifecycle.Gate.Seeded: Refine's k-th best distance starts at it, so its
// sketch test and early abandon drop rows beyond the seed before k neighbours
// are known, and σ_UB is min(seed, the k-th smallest upper bound) from the
// first Add, so Add, Filter and Refine's cutoff drop rows whose lower bound is
// beyond it.
//
// The seed is an exact distance, and a row at exactly that distance — a tie
// with the seed's own row, whose ID may win the tie — must survive both
// kinds of test, so each starts a little above it. The exact ones start at
// the float just above seed: the refine abandons against the bound's square,
// and a row whose distance computes to exactly seed can have a squared sum
// that rounds above seed² (the sketch proves against the same square); one
// ulp up, every sum whose square root rounds to seed is within the bound. The
// lower-bound ones start at √(seed² + 2⁻³⁶·2n): a lower bound is sound in
// exact arithmetic, and in floats it can come out above the distance it
// bounds — a stored row queried by itself, at distance 0, has bounds up to
// 1.5·10⁻⁶ at n = 1 024, whose square is 1.2·10⁻¹⁵ of 2n, the energy of two
// standardized series — so the margin leaves a factor of 10⁴ over that,
// and costs a radius of 10 a part in 10¹⁰. A +Inf seed changes nothing.
func (s *Scratch) Seed(seed float64, n int) {
	s.seed = math.Nextafter(seed, math.Inf(1))
	s.seedLB = max(s.seed, math.Sqrt(seed*seed+0x1p-36*float64(2*n)))
	s.sigmaUB = s.seedLB
}

// Release returns s to the pool. s must not be used afterwards.
func (s *Scratch) Release() { pool.Put(s) }

// BoundBufs returns the two kernel output buffers, each of length n.
func (s *Scratch) BoundBufs(n int) (lb, ub []float64) {
	s.lb = slices.Grow(s.lb[:0], n)[:n]
	s.ub = slices.Grow(s.ub[:0], n)[:n]
	return s.lb, s.ub
}

// SigmaUB returns the k-th smallest upper bound of any candidate added so
// far (+Inf until k have been), or the seed when that is smaller — with k=1
// and no seed exactly the paper's best-so-far σ_UB.
func (s *Scratch) SigmaUB() float64 { return s.sigmaUB }

// Collected returns how many candidates have been added and not yet
// filtered out: before Filter every candidate presented to Add, after it the
// ones left to refine.
func (s *Scratch) Collected() int { return len(s.cands) + s.early }

// Add records a candidate and updates σ_UB. Bounds that are tight can come
// out inverted by an ulp of rounding (lb > ub); left alone, every candidate
// holding one of the k smallest upper bounds would then fail its own σ_UB
// filter and the search would return nothing, so lb is clamped to ub.
//
// A candidate whose lower bound already exceeds σ_UB is counted and not kept
// — an entry whose bound the kernel abandoned arrives as lb = ub = +Inf and
// takes the same branch. It changes nothing Filter decides: such a candidate
// has ub ≥ lb > σ_UB, so it would not have entered the heap of the k smallest
// upper bounds, and σ_UB only falls, so Filter would have dropped it, and not
// from inside the ε band (σ_UB/(1+ε), σ_UB], where a drop has to be recorded
// on the gate.
func (s *Scratch) Add(id int, lb, ub float64) {
	if lb > ub {
		lb = ub
	}
	if lb > s.sigmaUB {
		s.early++
		return
	}
	s.cands = append(s.cands, candidate{id: id, lb: lb, ub: ub})
	if len(s.ubTop) < s.k {
		s.ubTop = append(s.ubTop, ub)
		siftUpMax(s.ubTop, len(s.ubTop)-1)
		if len(s.ubTop) == s.k {
			s.sigmaUB = min(s.seedLB, s.ubTop[0])
		}
	} else if ub < s.ubTop[0] {
		s.ubTop[0] = ub
		siftDownMax(s.ubTop, 0)
		s.sigmaUB = min(s.seedLB, s.ubTop[0])
	}
}

func siftUpMax(h []float64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownMax(h []float64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Filter ends the collection phase: it discards every candidate whose lower
// bound exceeds σ_UB, puts the rest in increasing (lower bound, ID) order and
// applies the gate's δ sampled-stop. It returns how many candidates enter
// refinement (before the δ cut) and how many the σ_UB filter dropped, the
// ones Add did not keep included.
//
// ε-relaxation: the filter runs against σ_UB/(1+ε) instead of σ_UB. A
// candidate dropped in the relaxed band carries a proven floor (its own
// lower bound), recorded on the gate so BoundGap stays sound. At ε=0 the
// relaxed radius IS σ_UB and the filter is bit-identical to exact.
func (s *Scratch) Filter(g *lifecycle.Gate) (kept, dropped int) {
	sub := s.sigmaUB
	rsub := g.Relax(sub)
	dropped, s.early = s.early, 0
	pruned := s.cands[:0]
	for _, c := range s.cands {
		if c.lb <= rsub {
			pruned = append(pruned, c)
		} else {
			if c.lb <= sub {
				g.MarkRelaxed(c.lb)
			}
			dropped++
		}
	}
	kept = len(pruned)
	pruned = s.order(pruned)
	// δ sampled-stop: refine only the first ⌈(1−δ)·n⌉ of the lb-sorted
	// candidates (never fewer than k). The skipped tail's smallest lower
	// bound — the first skipped entry, by sort order — is its proven floor.
	if cut := g.DeltaCut(len(pruned), s.k); cut < len(pruned) {
		g.MarkRelaxed(pruned[cut].lb)
		pruned = pruned[:cut]
	}
	s.cands = pruned
	return kept, dropped
}

// byBound is the order candidates are refined in: increasing lower bound,
// ties by ID. It is total (an ID is collected once), so the refinement order —
// and with it which rows are read, which the sketch spares and where the δ
// cut falls — is a property of the candidates, not of a sort's path through
// their ties.
func byBound(a, b candidate) int {
	switch {
	case a.lb < b.lb:
		return -1
	case a.lb > b.lb:
		return 1
	default:
		return a.id - b.id
	}
}

const (
	// sortBelow is the candidate count under which order is one comparison
	// sort: the distribution's two passes and its count table only pay for
	// themselves past a few dozen entries (64 is where the two cross on the
	// benchmark corpus, within the noise of either).
	sortBelow = 64
	// perBucket is how many candidates order aims at a bucket. Lower bounds
	// are not uniform — on the dense queries of the benchmark corpus two
	// humps and one candidate at zero leave a third of the buckets empty — so
	// a bucket holds a few times this where it holds anything. Measured on
	// BenchmarkFilterOrder16k: 0.50 ms at 4, 0.39 at 2, 0.38 at 1; 2 keeps the
	// count table (4 B a bucket) a twelfth of the candidates' own bytes.
	perBucket = 2
	// insertionMax is the bucket length up to which insertion sort orders a
	// bucket — the length under which the comparison sort would do the same
	// after its dispatch; longer buckets go to it.
	insertionMax = 12
)

// order sorts c under byBound and returns it (in c's storage or the
// scratch's spare buffer, which then trade places). Candidates are dealt into
// buckets by a monotone function of lb — subtracting the minimum, multiplying
// by a positive constant and truncating are each non-decreasing, so a
// candidate in a later bucket never has a smaller lb — and each bucket is
// ordered exactly: O(n) for the tens of thousands of candidates a dense
// query keeps, of which refinement reads a few hundred, where a comparison
// sort was a sixth of the search. A range the buckets cannot divide (one
// value, or not finite) falls back to the comparison sort.
func (s *Scratch) order(c []candidate) []candidate {
	n := len(c)
	if n < sortBelow {
		slices.SortFunc(c, byBound)
		return c
	}
	lo, hi := c[0].lb, c[0].lb
	for _, e := range c[1:] {
		lo, hi = min(lo, e.lb), max(hi, e.lb)
	}
	buckets := n / perBucket
	span := hi - lo
	scale := float64(buckets) / span
	// A positive finite span excludes NaN and ±Inf bounds, and with a finite
	// scale (the span may be denormal) every product below is finite and
	// within [0, buckets·(1 + 2⁻⁵²)], so its conversion to int is defined.
	if !(span > 0) || math.IsInf(span, 1) || math.IsInf(scale, 1) {
		slices.SortFunc(c, byBound)
		return c
	}
	bucket := func(lb float64) int { return min(int((lb-lo)*scale), buckets-1) }

	s.counts = slices.Grow(s.counts[:0], buckets+1)[:buckets+1]
	counts := s.counts
	clear(counts)
	for _, e := range c {
		counts[bucket(e.lb)+1]++
	}
	for b := 1; b <= buckets; b++ { // counts[b] becomes where bucket b starts
		counts[b] += counts[b-1]
	}
	out := slices.Grow(s.spare[:0], n)[:n]
	for _, e := range c {
		b := bucket(e.lb)
		out[counts[b]] = e
		counts[b]++
	}
	// counts[b] is now where bucket b ends.
	start := int32(0)
	for _, end := range counts[:buckets] {
		if b := out[start:end]; len(b) > insertionMax {
			slices.SortFunc(b, byBound)
		} else {
			for i := 1; i < len(b); i++ {
				e := b[i]
				j := i
				for ; j > 0 && byBound(e, b[j-1]) < 0; j-- {
					b[j] = b[j-1]
				}
				b[j] = e
			}
		}
		start = end
	}
	s.spare = c
	return out
}

// RefineStats reports the work one Refine performed.
type RefineStats struct {
	// FullRetrievals counts uncompressed sequences read from the store.
	FullRetrievals int `json:"full_retrievals"`
	// ExactDistances counts exact distance evaluations, including ones
	// that early-abandoned partway through the sequence.
	ExactDistances int `json:"exact_distances"`
	// EarlyAbandons counts the evaluations that abandoned.
	EarlyAbandons int `json:"early_abandons"`
	// CutoffSkips counts the candidates left unread because every remaining
	// lower bound exceeded the k-th best distance.
	CutoffSkips int `json:"cutoff_skips"`
	// SketchSkips counts the candidates left unread because the store's
	// sketch proved them farther than the k-th best distance — each one a
	// row that would otherwise have been read and abandoned.
	SketchSkips int `json:"sketch_skips"`
	// BudgetSkips counts the candidates left unread because the gate's
	// exact-distance budget ran out first.
	BudgetSkips int `json:"budget_skips"`
}

// Refine measures the filtered candidates against the query in increasing
// lower-bound order and returns the k nearest in canonical (Dist, ID)
// order. Ranking ties by ID makes the result set independent of refinement
// order — and therefore of tree shape — which is what lets a sharded
// engine's per-shard top-k lists merge to exactly the single-engine answer
// (see internal/shard).
//
// The k-th best distance starts at the seed (see Seed), +Inf unless the
// search was seeded, and falls to the k-th neighbour's once k are known.
// A candidate about to be read is first put to the store's sketch (package
// sketch): one the sketch proves farther than the k-th best distance is
// skipped, at no budget. The proof implies the exact evaluation below would
// have abandoned, so the skip changes neither the neighbours nor how the
// k-th best distance evolves — only that the row is not read. Every other
// candidate costs one gate Exact unit and one store read. A store with row
// views (seqstore.Rows) is read in place; any other is read into the
// scratch's buffer. A budget that runs out keeps the neighbours refined so
// far; a read or context error aborts with that error. The stats are valid
// on every return.
func (s *Scratch) Refine(q *spectral.Prepared, store seqstore.Store, g *lifecycle.Gate) ([]Result, RefineStats, error) {
	query := q.Values()
	rows := seqstore.NewReader(store)
	if !rows.InPlace() {
		s.row = slices.Grow(s.row[:0], len(query))[:len(query)]
	}
	sk, skq := rows.Sketch(), q.Sketch()
	// Against worst itself, not worst/(1+ε): the sketch stands in for the
	// early abandon, which is not relaxed either. A bound this tight applied
	// at the relaxed radius rejects true neighbours the loose cutoff never
	// reaches (recall@k at ε = 0.05 fell from ≥ 0.99 to 0.83 when it was
	// tried).
	spared := func(id int, worst float64) bool { return skq.Exceeds(sk, id, worst) }
	res, st, err := s.RefineBy(g, spared, func(id int, worst float64) (float64, bool, error) {
		row, err := rows.Row(id, s.row)
		if err != nil {
			return 0, false, fmt.Errorf("knn: refine id %d: %w", id, err)
		}
		return series.EuclideanEarlyAbandon(query, row, worst)
	})
	st.FullRetrievals = st.ExactDistances // one read per exact distance
	return res, st, err
}

// RefineBy is fig. 11's refinement loop under any exact distance, the one
// Refine runs with Euclidean distance and DTW with banded DTW: the ε-relaxed
// cutoff, the gate's Exact unit, exact(id, worst) — candidate id's distance,
// or abandoned = true once it is proved above worst — and the canonical
// insert. The distance must be bounded below by the lower bounds the
// candidates were added with. spared, when not nil, proves a candidate
// farther than worst without measuring it (Refine's sketch), at no budget;
// DTW passes nil, since the store's sketch bounds Euclidean distance and DTW
// can fall below it. The caller reads the rows, so FullRetrievals stays 0.
func (s *Scratch) RefineBy(g *lifecycle.Gate, spared func(id int, worst float64) bool, exact func(id int, worst float64) (float64, bool, error)) ([]Result, RefineStats, error) {
	var st RefineStats
	var best []Result
	// The seed until k neighbours are known, then the k-th's distance: worst
	// for the exact tests, reach for the lower bounds (see Seed).
	worst, reach := s.seed, s.seedLB
	for ci, c := range s.cands {
		// ε-relaxed cutoff: stop once every remaining lower bound exceeds
		// reach/(1+ε). A cutoff that would not have fired at ε=0 records
		// the skipped candidate's lower bound as the proven floor.
		if c.lb > g.Relax(reach) {
			if c.lb <= reach {
				g.MarkRelaxed(c.lb)
			}
			st.CutoffSkips = len(s.cands) - ci
			break // every later candidate has an even larger lower bound
		}
		if spared != nil && spared(c.id, worst) {
			if ok, err := g.Skip(); err != nil {
				return nil, st, err
			} else if !ok {
				st.BudgetSkips = len(s.cands) - ci
				break
			}
			st.SketchSkips++
			continue
		}
		if ok, err := g.Exact(); err != nil {
			return nil, st, err
		} else if !ok {
			st.BudgetSkips = len(s.cands) - ci
			break // budget exhausted: keep the neighbours refined so far
		}
		d, abandoned, err := exact(c.id, worst)
		if err != nil {
			return nil, st, err
		}
		st.ExactDistances++
		if abandoned {
			st.EarlyAbandons++
			continue
		}
		if best == nil {
			best = make([]Result, 0, min(s.k, len(s.cands))+1)
		}
		pos := sort.Search(len(best), func(i int) bool {
			return best[i].Dist > d || (best[i].Dist == d && best[i].ID > c.id)
		})
		best = append(best, Result{})
		copy(best[pos+1:], best[pos:])
		best[pos] = Result{ID: c.id, Dist: d}
		if len(best) > s.k {
			best = best[:s.k]
		}
		if len(best) == s.k {
			worst = best[s.k-1].Dist
			reach = worst
		}
	}
	return best, st, nil
}
