package spectral

import (
	"errors"
	"fmt"
	"math"
)

// Arena packs a set of Compressed features into contiguous structure-of-
// arrays storage so bound evaluation walks flat float64/int32 slices instead
// of chasing one heap object (and its Positions/Coeffs slices) per feature.
// The VP-tree's block-organized leaves evaluate all their entries against a
// query in a single allocation-free kernel loop over this layout
// (BoundsBlock); the results are bit-identical to the per-feature scalar
// path (Compressed.BoundsFast / SafeBoundsFast) because the kernel performs
// exactly the same floating-point operations in the same order — complex
// subtraction is componentwise, and every cached query-side value equals
// what the scalar path recomputes.
//
// An arena is homogeneous: one method, one sequence length, one basis. That
// is the invariant every index in this repository already maintains (a tree
// compresses all its objects under one Options), and it lets the kernel
// hoist the method dispatch and compatibility checks out of the per-feature
// loop.
//
// The caller chooses the packing order and it is worth choosing: a bound reads
// about 300 bytes of one feature out of megabytes of arena, so slots visited in
// increasing order stream through the cache and slots visited at random miss
// it. The VP-tree packs its features in the order a search walks them.
//
// An arena changes in one way after construction: Append adds a feature in
// the next slot, past every packed one, and moves no row a reader could be
// looking at. Append may reallocate the slices the kernel reads, so it must
// not run beside a reader: the VP-tree appends only from Insert, which the
// engine calls under its write lock. Between Appends any number of
// goroutines may evaluate bounds.
type Arena struct {
	method Method
	n      int
	basis  basis
	// starts[i] .. starts[i+1] delimit feature i's rows in positions/re/im.
	starts    []int32
	positions []int32
	re, im    []float64
	// maxPos is the largest position packed: the kernel checks it against the
	// query's bins once a call and then reads the query's table unchecked.
	maxPos int32
	// minPower[i] and errv[i] are feature i's MinPower and Err.
	minPower []float64
	errv     []float64
}

// ErrArenaMixed is returned when the features handed to NewArena do not
// share one method, sequence length and basis.
var ErrArenaMixed = errors.New("spectral: arena requires homogeneous features")

// NewArena packs feats into a flat arena in the order given: slot i holds
// feats[i]. All features must share one method, sequence length and basis;
// nil features are rejected.
func NewArena(feats []*Compressed) (*Arena, error) {
	return NewArenaOrdered(feats, nil)
}

// NewArenaOrdered packs feats[order[s]] into slot s, for a caller whose
// features are stored in one order and visited in another. Features that
// order does not name are left out and not looked at; naming one twice, or
// one that is not there, is an error. A nil order is the identity (NewArena).
//
// Whatever order says, feats is read front to back — the order its elements
// were allocated in, near enough, which is the order memory serves fastest —
// and it is the writes into the arena, a compact region, that land out of
// sequence. Gathering the features by slot first costs twice as much at 4 096
// features.
func NewArenaOrdered(feats []*Compressed, order []int32) (*Arena, error) {
	slots := len(order)
	slotOf := make([]int32, len(feats)) // slotOf[i] is the slot of feats[i], -1 for none
	if order == nil {
		slots = len(feats)
		for i := range slotOf {
			slotOf[i] = int32(i)
		}
	} else {
		for i := range slotOf {
			slotOf[i] = -1
		}
		for s, i := range order {
			if i < 0 || int(i) >= len(feats) {
				return nil, fmt.Errorf("spectral: arena order names feature %d of %d", i, len(feats))
			}
			if slotOf[i] >= 0 {
				return nil, fmt.Errorf("spectral: arena order names feature %d twice", i)
			}
			slotOf[i] = int32(s)
		}
	}
	if slots == 0 {
		return nil, errors.New("spectral: arena requires at least one feature")
	}

	// First pass: validate, and leave each slot's row count in starts[slot+1].
	a := &Arena{starts: make([]int32, slots+1)}
	var first *Compressed
	for i, c := range feats {
		s := slotOf[i]
		if s < 0 {
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("spectral: arena feature %d is nil", i)
		}
		if first == nil {
			if !knownMethod(c.Method) {
				return nil, errUnknownMethod(c.Method)
			}
			first = c
		}
		if c.Method != first.Method || c.N != first.N || c.basis != first.basis {
			return nil, ErrArenaMixed
		}
		a.starts[s+1] = int32(len(c.Positions))
	}
	for s := range a.starts[1:] {
		a.starts[s+1] += a.starts[s]
	}
	total := a.starts[slots]
	a.method, a.n, a.basis = first.Method, first.N, first.basis
	a.positions = make([]int32, total)
	a.re = make([]float64, total)
	a.im = make([]float64, total)
	a.minPower = make([]float64, slots)
	a.errv = make([]float64, slots)

	// Second pass: each feature's rows to where its slot starts.
	for i, c := range feats {
		s := slotOf[i]
		if s < 0 {
			continue
		}
		at := a.starts[s]
		positions, re, im := a.positions[at:], a.re[at:], a.im[at:]
		for j, p := range c.Positions {
			positions[j] = int32(p)
			re[j] = real(c.Coeffs[j])
			im[j] = imag(c.Coeffs[j])
			a.maxPos = max(a.maxPos, int32(p))
		}
		a.minPower[s], a.errv[s] = c.MinPower, c.Err
	}
	return a, nil
}

// Append packs c into the next slot, Len() before the call, and returns that
// slot. c must share the arena's method, sequence length and basis, as every
// feature handed to NewArenaOrdered must; a feature that does not leaves the
// arena unchanged. The cost is c's rows (amortised: the slices grow as append
// grows them), whatever the arena holds. Not safe beside a reader — see Arena.
func (a *Arena) Append(c *Compressed) (int, error) {
	if c == nil {
		return 0, errors.New("spectral: arena append of a nil feature")
	}
	if c.Method != a.method || c.N != a.n || c.basis != a.basis {
		return 0, ErrArenaMixed
	}
	for j, p := range c.Positions {
		a.positions = append(a.positions, int32(p))
		a.re = append(a.re, real(c.Coeffs[j]))
		a.im = append(a.im, imag(c.Coeffs[j]))
		a.maxPos = max(a.maxPos, int32(p))
	}
	a.starts = append(a.starts, int32(len(a.positions)))
	a.minPower = append(a.minPower, c.MinPower)
	a.errv = append(a.errv, c.Err)
	return len(a.minPower) - 1, nil
}

// Feature returns a copy of the feature in slot s: the Compressed NewArena
// or Append packed there.
func (a *Arena) Feature(s int) *Compressed {
	lo, hi := a.starts[s], a.starts[s+1]
	c := &Compressed{
		Method: a.method, N: a.n, basis: a.basis, MinPower: a.minPower[s], Err: a.errv[s],
		Positions: make([]int, hi-lo), Coeffs: make([]complex128, hi-lo),
	}
	for j := lo; j < hi; j++ {
		c.Positions[j-lo] = int(a.positions[j])
		c.Coeffs[j-lo] = complex(a.re[j], a.im[j])
	}
	return c
}

func knownMethod(m Method) bool {
	switch m {
	case GEMINI, Wang, BestMin, BestError, BestMinError:
		return true
	}
	return false
}

// Len returns the number of packed features.
func (a *Arena) Len() int { return len(a.minPower) }

// Method returns the arena's (uniform) representation method.
func (a *Arena) Method() Method { return a.method }

// Coeffs returns the total number of packed coefficient rows.
func (a *Arena) Coeffs() int { return len(a.positions) }

// BoundsAt evaluates the bounds of feature ref against the context's query
// — the scalar view of the kernel, bit-identical to BoundsBlock on a
// one-entry block and to Compressed.(Safe)BoundsFast. It always finishes the
// bound: a vantage point routes on both values.
func (a *Arena) BoundsAt(ctx *QueryContext, ref int, safe bool) (lb, ub float64, err error) {
	refs := [1]int32{int32(ref)}
	var lbs, ubs [1]float64
	if err := a.BoundsBlock(ctx, refs[:], safe, lbs[:], ubs[:]); err != nil {
		return 0, 0, err
	}
	return lbs[0], ubs[0], nil
}

// BoundsBlock evaluates the query bounds against a block of features in one
// loop, writing lb[i], ub[i] for refs[i]. safe selects SafeBounds (provably
// sound) over the paper-faithful bounds, exactly as on the scalar path. The
// call allocates nothing; lb and ub must be at least len(refs) long.
//
// Exactness: for every ref the kernel performs the same floating-point
// operations in the same order as Compressed.boundsFast, so the results are
// bit-identical (property- and fuzz-tested) — downstream σ_UB updates and
// prune decisions therefore cannot diverge between the two paths.
func (a *Arena) BoundsBlock(ctx *QueryContext, refs []int32, safe bool, lb, ub []float64) error {
	_, err := a.BoundsBlockCut(ctx, refs, safe, math.Inf(1), lb, ub)
	return err
}

// abandonMargin is the slack AbandonCut leaves between a radius squared and
// the cut it hands the kernel. The roundings between the two — of r·r, of the
// product with 1+margin, and of the square root that ends a bound — are each
// within 2⁻⁵³ relative, so anything above 2⁻⁵⁰ would do; 2⁻⁴⁰ leaves a factor
// of a thousand and still abandons everything more than a part in 10¹² past
// the radius.
const abandonMargin = 1.0 / (1 << 40)

// AbandonCut is the cutSq to hand BoundsBlockCut so that every entry it
// abandons has a lower bound strictly above radius: r²·(1 + margin). An
// infinite (or overflowing) radius gives +Inf, which abandons nothing.
func AbandonCut(radius float64) float64 {
	return radius * radius * (1 + abandonMargin)
}

// BoundsBlockCut is BoundsBlock for a caller that will discard every entry
// whose lower bound exceeds a radius it already knows (a leaf of the search:
// σ_UB): such an entry's bound is not finished. The kernel sums an entry's
// stored-row distance first, and as soon as a partial sum it looks at — every
// fourth, and the last — exceeds cutSq it writes lb = ub = +Inf for the entry
// and moves on; abandoned counts them.
// Every entry that is not abandoned gets exactly the BoundsBlock values —
// each accumulator sees the same operations in the same order — and
// cutSq = +Inf is BoundsBlock.
//
// Soundness, as for the sketch (package sketch): every bound this package
// computes ends lb = √(distSq + x) with x ≥ 0 — a square, a clamped residue
// or a max of two such — and distSq a sum of the non-negative terms w·d².
// Float addition of a non-negative term and the correctly rounded square root
// never decrease their argument's order, so a partial sum p > cutSq gives a
// finished lb ≥ √p ≥ √cutSq, and with cutSq = AbandonCut(r) that is lb > r
// (see abandonMargin). The caller would have dropped the entry on that
// comparison alone; the upper bound of a dropped entry is never read.
func (a *Arena) BoundsBlockCut(ctx *QueryContext, refs []int32, safe bool, cutSq float64, lb, ub []float64) (abandoned int, err error) {
	q := ctx.q
	if q.N != a.n || q.basis != a.basis {
		return 0, ErrMismatch
	}
	if len(lb) < len(refs) || len(ub) < len(refs) {
		return 0, errors.New("spectral: bounds block output shorter than refs")
	}
	tab := ctx.tab
	if int(a.maxPos) >= q.Bins() || len(tab) == 0 {
		return 0, fmt.Errorf("spectral: arena holds bin %d, the query has %d", a.maxPos, q.Bins())
	}
	mask := len(tab) - 1 // a power of two less one: see QueryContext.tab
	method := a.method
	inf := math.Inf(1)
	for bi, r := range refs {
		if r < 0 || int(r) >= len(a.minPower) {
			return abandoned, fmt.Errorf("spectral: arena ref %d out of range", r)
		}
		lo, hi := a.starts[r], a.starts[r+1]
		pos := a.positions[lo:hi]
		re, im := a.re[lo:hi], a.im[lo:hi]
		re, im = re[:len(pos)], im[:len(pos)]

		// First pass: the stored rows' distance alone, which is all an
		// abandoned entry pays. The loop looks at the cut every fourth row —
		// often enough to stop a far entry after a quarter or a half of its
		// rows, seldom enough not to cost the entries that finish — and the
		// test after it catches both an early exit and a sum that only the
		// last rows took past the cut, which still spares the second pass.
		var distSq float64
		for j, b := range pos {
			t := &tab[int(b)&mask]
			dre := t.re - re[j]
			dim := t.im - im[j]
			d := math.Sqrt(dre*dre + dim*dim)
			distSq += t.w * d * d
			if j&3 == 3 && distSq > cutSq {
				break
			}
		}
		if distSq > cutSq {
			lb[bi], ub[bi] = inf, inf
			abandoned++
			continue
		}

		// Second pass, survivors only: whole-spectrum aggregates at threshold
		// mp (see boundsFast), corrected for the stored rows — they are not
		// omitted.
		mp := a.minPower[r]
		a0, a1, a2 := ctx.aboveMoments(mp)
		lbMinSq := a2 - 2*mp*a1 + mp*mp*a0
		ubMinSq := ctx.totalWM2 + 2*mp*ctx.totalWM + mp*mp*ctx.totalW
		qNusedSq := ctx.totalWM2 - a2
		caseOneW := a0
		qErr := ctx.totalWM2
		for _, b := range pos {
			t := &tab[int(b)&mask]
			w, m := t.w, t.m
			qErr -= w * m * m
			ubMinSq -= w * (m + mp) * (m + mp)
			if m > mp {
				lbMinSq -= w * (m - mp) * (m - mp)
				caseOneW -= w
			} else {
				qNusedSq -= w * m * m
			}
		}
		tErr := a.errv[r]
		tNusedSq := tErr - mp*mp*caseOneW
		if tNusedSq < 0 {
			tNusedSq = 0
		}
		// Guard tiny negative float residue from the subtractive corrections.
		if lbMinSq < 0 {
			lbMinSq = 0
		}
		if ubMinSq < 0 {
			ubMinSq = 0
		}
		if qNusedSq < 0 {
			qNusedSq = 0
		}
		if qErr < 0 {
			qErr = 0
		}

		switch method {
		case GEMINI:
			lb[bi], ub[bi] = math.Sqrt(distSq), inf

		case Wang, BestError:
			dq, dt := math.Sqrt(qErr), math.Sqrt(tErr)
			lb[bi] = math.Sqrt(distSq + (dq-dt)*(dq-dt))
			ub[bi] = math.Sqrt(distSq + (dq+dt)*(dq+dt))

		case BestMin:
			lb[bi], ub[bi] = math.Sqrt(distSq+lbMinSq), math.Sqrt(distSq+ubMinSq)

		case BestMinError:
			qn, tn, te := math.Sqrt(qNusedSq), math.Sqrt(tNusedSq), math.Sqrt(tErr)
			dq := math.Sqrt(qErr)
			ubA := distSq + ubMinSq
			ubB := distSq + (dq+te)*(dq+te)
			ub[bi] = math.Sqrt(math.Min(ubA, ubB))
			if !safe {
				lb[bi] = math.Sqrt(distSq + lbMinSq + (qn-tn)*(qn-tn))
				break
			}
			var lb2 float64
			switch {
			case qn > te:
				lb2 = qn - te
			case qn < tn:
				lb2 = tn - qn
			}
			lbA := lbMinSq + lb2*lb2
			lbB := (dq - te) * (dq - te)
			lb[bi] = math.Sqrt(distSq + math.Max(lbA, lbB))
		}
	}
	return abandoned, nil
}
