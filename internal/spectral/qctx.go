package spectral

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// QueryContext precomputes query-side aggregates so that bound evaluation
// against a compressed object costs O(k + log n) — k stored coefficients —
// instead of O(n) bins. A search that evaluates bounds against thousands of
// compressed objects builds one context and reuses it; results agree with
// Compressed.Bounds / SafeBounds to floating-point accumulation order
// (property tested), just cheaper.
//
// The trick: every omitted-bin aggregate the bound algebra needs —
//
//	Σ w(|Q|−mp)² over bins with |Q| > mp   (minProperty LB terms)
//	Σ w(|Q|+mp)²                            (minProperty UB terms)
//	Σ w|Q|²      over bins with |Q| ≤ mp    (Q.nused)
//	Σ w          over bins with |Q| > mp    (T.nused deduction)
//
// expands into moment sums Σw, Σw|Q| and Σw|Q|² over the bins above/below
// the object's minPower threshold, which prefix sums over the magnitude-
// sorted bins answer in O(log n); the handful of *stored* bins is then
// corrected for individually.
type QueryContext struct {
	q *HalfSpectrum
	// tab[b] is what a bound reads of bin b — Weight(b), |Q_b| and the
	// coefficient's components — in one row, so a stored coefficient costs
	// the kernel one cache line of query instead of four. The table is padded
	// to a power of two and read as tab[b&(len(tab)-1)]: the compiler can
	// prove that index in range, which it cannot of a position read out of an
	// arena, so the gathers carry no bounds check (rows past Bins() are zero
	// and never addressed: a position is a bin). The values are exactly what
	// q.Weight, absFast and q.Coeffs return, so the scalar and batched paths
	// stay bit-identical.
	tab []qbin
	// sorted holds the bin magnitudes in ascending order; pw/pwm/pwm2 are
	// prefix sums of w, w·|Q| and w·|Q|² in that order (pw[i] sums the
	// first i sorted bins).
	sorted          []float64
	pw, pwm, pwm2   []float64
	back            []float64 // the one array the four tables above are cut from
	totalW, totalWM float64
	totalWM2        float64
}

// qbin is one bin of the query as the bound kernels read it.
type qbin struct {
	w, m   float64 // Weight(b), |Q_b|
	re, im float64 // Q_b
}

// absFast is |c| without math.Hypot's overflow guard — safe here because
// coefficients of standardized finite series are far from the float64
// overflow range, and ~3x faster in the bound hot path.
func absFast(c complex128) float64 {
	re, im := real(c), imag(c)
	return math.Sqrt(re*re + im*im)
}

// magBin is one bin keyed for the magnitude sort.
type magBin struct {
	m   float64
	bin int
}

// sortScratch pools the two magnitude-sort buffers of NewQueryContext; they
// are returned before NewQueryContext does, so no context ever aliases them.
var sortScratch = sync.Pool{New: func() any { return new([]magBin) }}

// orderByMagnitude sorts a, given in ascending bin order, into ascending
// magnitude with ties by bin, and returns the sorted slice — a or tmp, which
// must be as long. It is a stable LSD radix sort on the bits of m, a byte a
// pass: magnitudes are non-negative, and for those the bits order as the
// values do (+0 first, +Inf last), while stability keeps equal magnitudes in
// bin order. Unlike a comparison sort it takes no branch on the data, which
// for the unpredictable order of a spectrum's magnitudes is what it costs. A
// byte every key shares costs no pass.
func orderByMagnitude(a, tmp []magBin) []magBin {
	if len(a) < 2 {
		return a
	}
	tmp = tmp[:len(a)]
	var counts [8][256]int32
	for _, e := range a {
		k := math.Float64bits(e.m)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := math.Float64bits(a[0].m)
	for d := range counts {
		c := &counts[d]
		shift := 8 * uint(d)
		if int(c[byte(first>>shift)]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, e := range a {
			b := byte(math.Float64bits(e.m) >> shift)
			tmp[c[b]] = e
			c[b]++
		}
		a, tmp = tmp, a
	}
	return a
}

// NewQueryContext builds the reusable context for q. The context is
// immutable once built and safe to share between concurrent searches.
func NewQueryContext(q *HalfSpectrum) *QueryContext {
	ctx := new(QueryContext)
	ctx.init(q)
	return ctx
}

// init fills ctx for q, reusing the tables of an earlier init when they are
// large enough (Prepare holds its context by value and pools it). Every
// entry a kernel reads is written: the bins' rows and moments here, the
// padded rows past Bins() cleared.
func (ctx *QueryContext) init(q *HalfSpectrum) {
	bins := q.Bins()
	// One backing array for the four moment tables.
	full := slices.Grow(ctx.back[:0], bins+3*(bins+1))[:bins+3*(bins+1)]
	back := full
	take := func(n int) []float64 {
		s := back[:n:n]
		back = back[n:]
		return s
	}
	rows := 1
	for rows < bins {
		rows <<= 1
	}
	tab := slices.Grow(ctx.tab[:0], rows)[:rows]
	clear(tab[bins:])
	*ctx = QueryContext{
		q:      q,
		tab:    tab,
		back:   full,
		sorted: take(bins),
		pw:     take(bins + 1),
		pwm:    take(bins + 1),
		pwm2:   take(bins + 1),
	}
	ctx.pw[0], ctx.pwm[0], ctx.pwm2[0] = 0, 0, 0
	sp := sortScratch.Get().(*[]magBin)
	buf := slices.Grow((*sp)[:0], 2*bins)[:2*bins]
	tmp := buf[:bins]
	for b := 0; b < bins; b++ {
		m := absFast(q.Coeffs[b])
		ctx.tab[b] = qbin{w: q.Weight(b), m: m, re: real(q.Coeffs[b]), im: imag(q.Coeffs[b])}
		tmp[b] = magBin{m: m, bin: b}
	}
	// Ascending magnitude, ties by bin index: the order is total, so the
	// prefix sums below do not depend on the sort algorithm (equal
	// magnitudes are routine — the zero bins of constant or padded series).
	for i, e := range orderByMagnitude(tmp, buf[bins:]) {
		w := ctx.tab[e.bin].w
		ctx.sorted[i] = e.m
		ctx.pw[i+1] = ctx.pw[i] + w
		ctx.pwm[i+1] = ctx.pwm[i] + w*e.m
		ctx.pwm2[i+1] = ctx.pwm2[i] + w*e.m*e.m
	}
	*sp = buf
	sortScratch.Put(sp)
	ctx.totalW = ctx.pw[bins]
	ctx.totalWM = ctx.pwm[bins]
	ctx.totalWM2 = ctx.pwm2[bins]
}

// aboveMoments returns (Σw, Σw|Q|, Σw|Q|²) over all bins with |Q| > mp.
func (ctx *QueryContext) aboveMoments(mp float64) (s0, s1, s2 float64) {
	// First index with sorted[i] > mp.
	i := sort.SearchFloat64s(ctx.sorted, math.Nextafter(mp, math.Inf(1)))
	return ctx.totalW - ctx.pw[i], ctx.totalWM - ctx.pwm[i], ctx.totalWM2 - ctx.pwm2[i]
}

// Bounds evaluates the paper-faithful bounds of t against the context's
// query (identical to t.Bounds, in O(k + log n)).
func (t *Compressed) BoundsFast(ctx *QueryContext) (lb, ub float64, err error) {
	return t.boundsFast(ctx, false)
}

// SafeBoundsFast evaluates the provably sound bounds of t against the
// context's query (identical to t.SafeBounds, in O(k + log n)).
func (t *Compressed) SafeBoundsFast(ctx *QueryContext) (lb, ub float64, err error) {
	return t.boundsFast(ctx, true)
}

func (t *Compressed) boundsFast(ctx *QueryContext, safe bool) (lb, ub float64, err error) {
	q := ctx.q
	if q.N != t.N || q.basis != t.basis {
		return 0, 0, ErrMismatch
	}
	// Two passes over the stored bins, as in Arena.BoundsBlockCut (whose
	// first pass is the one that may stop early): their distance, then the
	// corrections to the whole-spectrum aggregates at threshold mp — the
	// stored bins are not omitted.
	var distSq float64
	for i, b := range t.Positions {
		d := absFast(q.Coeffs[b] - t.Coeffs[i])
		distSq += q.Weight(b) * d * d
	}

	mp := t.MinPower
	a0, a1, a2 := ctx.aboveMoments(mp)
	lbMinSq := a2 - 2*mp*a1 + mp*mp*a0
	ubMinSq := ctx.totalWM2 + 2*mp*ctx.totalWM + mp*mp*ctx.totalW
	qNusedSq := ctx.totalWM2 - a2
	caseOneW := a0
	qErr := ctx.totalWM2
	for _, b := range t.Positions {
		w, m := q.Weight(b), ctx.tab[b].m
		qErr -= w * m * m
		ubMinSq -= w * (m + mp) * (m + mp)
		if m > mp {
			lbMinSq -= w * (m - mp) * (m - mp)
			caseOneW -= w
		} else {
			qNusedSq -= w * m * m
		}
	}
	tNusedSq := t.Err - mp*mp*caseOneW
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

	switch t.Method {
	case GEMINI:
		return math.Sqrt(distSq), math.Inf(1), nil

	case Wang, BestError:
		dq, dt := math.Sqrt(qErr), math.Sqrt(t.Err)
		lb = math.Sqrt(distSq + (dq-dt)*(dq-dt))
		ub = math.Sqrt(distSq + (dq+dt)*(dq+dt))
		return lb, ub, nil

	case BestMin:
		return math.Sqrt(distSq + lbMinSq), math.Sqrt(distSq + ubMinSq), nil

	case BestMinError:
		qn, tn, te := math.Sqrt(qNusedSq), math.Sqrt(tNusedSq), math.Sqrt(t.Err)
		dq := math.Sqrt(qErr)
		ubA := distSq + ubMinSq
		ubB := distSq + (dq+te)*(dq+te)
		ub = math.Sqrt(math.Min(ubA, ubB))
		if !safe {
			lb = math.Sqrt(distSq + lbMinSq + (qn-tn)*(qn-tn))
			return lb, ub, nil
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
		lb = math.Sqrt(distSq + math.Max(lbA, lbB))
		return lb, ub, nil
	}
	return 0, 0, errUnknownMethod(t.Method)
}
