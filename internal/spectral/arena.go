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
	}
	a.starts = append(a.starts, int32(len(a.positions)))
	a.minPower = append(a.minPower, c.MinPower)
	a.errv = append(a.errv, c.Err)
	return len(a.minPower) - 1, nil
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
// one-entry block and to Compressed.(Safe)BoundsFast.
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
	q := ctx.q
	if q.N != a.n || q.basis != a.basis {
		return ErrMismatch
	}
	if len(lb) < len(refs) || len(ub) < len(refs) {
		return errors.New("spectral: bounds block output shorter than refs")
	}
	method := a.method
	for bi, r := range refs {
		if r < 0 || int(r) >= len(a.minPower) {
			return fmt.Errorf("spectral: arena ref %d out of range", r)
		}
		mp := a.minPower[r]

		// Whole-spectrum aggregates at threshold mp (see boundsFast).
		a0, a1, a2 := ctx.aboveMoments(mp)
		lbMinSq := a2 - 2*mp*a1 + mp*mp*a0
		ubMinSq := ctx.totalWM2 + 2*mp*ctx.totalWM + mp*mp*ctx.totalW
		qNusedSq := ctx.totalWM2 - a2
		caseOneW := a0
		qErr := ctx.totalWM2

		// Correct for the stored rows: they are not omitted.
		var distSq float64
		for j := a.starts[r]; j < a.starts[r+1]; j++ {
			b := a.positions[j]
			w := ctx.weights[b]
			m := ctx.mags[b]
			dre := ctx.qre[b] - a.re[j]
			dim := ctx.qim[b] - a.im[j]
			d := math.Sqrt(dre*dre + dim*dim)
			distSq += w * d * d
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
			lb[bi], ub[bi] = math.Sqrt(distSq), math.Inf(1)

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
	return nil
}
