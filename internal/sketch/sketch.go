// Package sketch is the quantised time-domain tier between the compressed
// index and the sequence store: one int8 code per point of every stored row,
// on a per-row power-of-two step, plus the row's exact quantisation error.
// A search that is about to read a full row asks the sketch first whether the
// row can still matter.
//
// The bound is the triangle inequality on codes. With x̂ = X·2^ex the
// dequantised row, q̂ = Q·2^eq the dequantised query and ex ≥ eq,
//
//	‖q − x‖ ≥ ‖q̂ − x̂‖ − ‖q − q̂‖ − ‖x − x̂‖ = 2^eq·‖Q − X·2^(ex−eq)‖ − e_q − e_x
//
// where the first term is an exact integer sum of squares (the row's class
// is a shift) and e_q, e_x are stored rounded up. Exceeds answers "is
// ‖q − x‖ > bound" from that and never errs towards yes: a relative margin
// covers every float rounding on the way, including those of the float64
// distance kernel the answer stands in for (see Exceeds).
//
// The layout is the VA+file's scan-then-refine approximation ("Return of the
// Lernaean Hydra", PAPERS.md) at one byte a point; at 1 024 points the bound
// lands within about 1.4 % of the true distance on z-scored data.
package sketch

import (
	"fmt"
	"math"
	"slices"
)

const (
	// rowBits and queryBits size the code ranges: a row's largest magnitude
	// maps to at most 2^rowBits−1 = 127, the query's to at most 2^queryBits.
	// The query is quantised finer than any row of similar scale so that its
	// own error all but vanishes from the bound and every such row's step is
	// a whole shift of the query's.
	rowBits   = 7
	queryBits = 14
	// minExp and maxExp bound the step exponents. Values below 2^minExp code
	// to zero (their whole magnitude lands in the stored error, which keeps
	// the bound sound and away from denormal arithmetic); a row or query
	// that would need a step above 2^maxExp is left unsketched.
	minExp = -100
	maxExp = 100
	// maxShift is the largest row-to-query step ratio Exceeds evaluates.
	// With |Q| ≤ 2^14 and |X| ≤ 127 a difference stays below 2^23 + 2^14, a
	// block of 16 squares below 2^51 — no overflow beside limits < 2^62.
	maxShift = 16
	// maxLen bounds the sequence length the rounding margin is proven for.
	maxLen = 1 << 24
	// margin is the relative slack on every comparison. The in-order float64
	// sum of n squares is within n·2^-53 (≤ 2^-29 at maxLen) of the real
	// one; the handful of roundings in Exceeds itself and in the stored
	// errors add a few 2^-53 more. 2^-26 covers all of it eight times over
	// and costs nothing measurable in pruning.
	margin = 0x1p-26
)

// unsketched is the stored error of a row (or query) the sketch cannot
// represent: non-finite values, a magnitude beyond maxExp, a sequence longer
// than maxLen. The bound it yields is −Inf, so such a row is never skipped.
var unsketched = math.Inf(1)

// scale returns the step exponent e with max·2^-e ≤ 2^bits (clamped below at
// minExp), and ok=false when max is not finite or e would exceed maxExp.
func scale(max float64, bits int) (e int, ok bool) {
	if !(max <= math.MaxFloat64) {
		return 0, false
	}
	if max == 0 {
		return 0, true
	}
	_, k := math.Frexp(max) // max = f·2^k, f in [0.5, 1)
	e = k - bits
	if e < minExp {
		e = minExp
	}
	return e, e <= maxExp
}

// absMax returns the largest magnitude in values, NaN or +Inf if any value
// is not finite.
func absMax(values []float64) float64 {
	max := 0.0
	for _, v := range values {
		a := math.Abs(v)
		if !(a <= max) { // also taken, and then sticky, for NaN
			if a != a {
				return a
			}
			max = a
		}
	}
	return max
}

// Rows is the sketch of a store: Len rows of n codes each. The zero value is
// an empty sketch of nothing (Exceeds is false for every id). A Rows value
// copied out of its owner is a stable snapshot: Append only ever writes
// beyond the snapshot's length and Truncate gives up the tail's capacity, so
// a later Append cannot write into rows an older snapshot still covers.
type Rows struct {
	n     int
	codes []int8 // row id at [id·n, (id+1)·n)
	meta  []rowMeta
}

type rowMeta struct {
	err   float64 // ‖x − x̂‖ rounded up; unsketched = +Inf
	sumSq uint64  // ΣX² over the row's codes (see kernel.go)
	exp   int8    // step 2^exp
}

// NewRows returns an empty sketch for rows of n values.
func NewRows(n int) Rows { return Rows{n: n} }

// Len returns the number of rows sketched.
func (r Rows) Len() int { return len(r.meta) }

// Grow makes room for rows more rows, so that appending that many allocates
// nothing: the codes are sized once, not grown a row at a time.
func (r *Rows) Grow(rows int) {
	r.codes = slices.Grow(r.codes, rows*r.n)
	r.meta = slices.Grow(r.meta, rows)
}

// Append sketches one more row; values must have the sketch's row length.
func (r *Rows) Append(values []float64) {
	base := len(r.codes)
	r.codes = append(r.codes, make([]int8, r.n)...)
	r.meta = append(r.meta, quantizeRow(values, r.codes[base:]))
}

// Truncate drops every row with id ≥ rows.
func (r *Rows) Truncate(rows int) {
	r.codes = r.codes[: rows*r.n : rows*r.n]
	r.meta = r.meta[:rows:rows]
}

// CheckSums recomputes every row's ΣX² from its codes and reports the first
// row whose stored sum has come apart from them.
func (r Rows) CheckSums() error {
	for id, m := range r.meta {
		if sumSq := sumSqOf(r.codes[id*r.n : (id+1)*r.n]); sumSq != m.sumSq {
			return fmt.Errorf("sketch: row %d stores ΣX² = %d, its codes sum to %d", id, m.sumSq, sumSq)
		}
	}
	return nil
}

func sumSqOf[C int8 | int16](codes []C) (sumSq uint64) {
	for _, c := range codes {
		sumSq += uint64(int64(c) * int64(c))
	}
	return sumSq
}

// quantize codes values on the step 2^e and returns ‖values − codes·2^e‖
// rounded up, and the codes' sum of squares. Which code a value rounds to
// does not matter for soundness: the error is measured against the codes
// actually stored.
func quantize[C int8 | int16](values []float64, codes []C, e int) (err float64, sumSq uint64) {
	inv, step := math.Ldexp(1, -e), math.Ldexp(1, e)
	var e2 float64
	for i, v := range values {
		c := math.RoundToEven(v * inv)
		codes[i] = C(c)
		sumSq += uint64(int64(codes[i]) * int64(codes[i]))
		d := v - c*step
		e2 += d * d
	}
	return math.Sqrt(e2) * (1 + margin), sumSq
}

// quantizeRow fills codes (zeroed, len(values)) and returns the row's step
// and error.
func quantizeRow(values []float64, codes []int8) rowMeta {
	max := absMax(values)
	e, ok := scale(max, rowBits)
	if !ok || len(values) > maxLen {
		return rowMeta{err: unsketched}
	}
	if math.RoundToEven(math.Ldexp(max, -e)) > 127 {
		e++ // max·2^-e in [127.5, 128): one step coarser keeps codes in int8
	}
	err, sumSq := quantize(values, codes, e)
	return rowMeta{err: err, sumSq: sumSq, exp: int8(e)}
}

// Query is a query quantised for Exceeds. Set fills it; between two Sets it
// is only read, so concurrent searches (the shards of one request) share one.
// The zero Query is ready for Set.
type Query struct {
	codes []int16
	exp   int     // step 2^exp
	inv   float64 // 2^-exp
	err   float64 // ‖q − q̂‖ rounded up; unsketched = +Inf
	sumSq uint64  // ΣQ² over codes
}

// Set quantises values on the query grid into q, reusing q's codes, and
// returns q. A query the sketch cannot represent is still set; Exceeds is
// false for it against every row.
func (q *Query) Set(values []float64) *Query {
	codes := slices.Grow(q.codes[:0], len(values))[:len(values)]
	*q = Query{codes: codes, err: unsketched}
	e, ok := scale(absMax(values), queryBits)
	if !ok || len(values) > maxLen {
		clear(codes)
		return q
	}
	q.exp, q.inv = e, math.Ldexp(1, -e)
	q.err, q.sumSq = quantize(values, q.codes, e)
	return q
}

// Exceeds reports whether row id is proven farther than bound from the
// query: true only if ‖q − x‖ > bound·(1 + margin/2) in real arithmetic,
// which in turn guarantees that series.EuclideanEarlyAbandon(q, x, bound)
// abandons — its in-order float64 sum of squares is within n·2^-53 of the
// real one, and bound·bound within 2^-53 of bound². False means "not
// proven", never "nearer": rows the sketch does not cover, unsketched rows
// or queries, a row class the query grid cannot express as a shift, a NaN or
// infinite bound all answer false.
//
// The test is 2^eq·‖Q − X·2^shift‖ > (bound + e_x + e_q)·(1 + margin),
// evaluated as an integer sum of squares against the right side squared in
// code units: in closed form around a vector inner product where there is a
// kernel for one (kernel.go), otherwise term by term, abandoning once the sum
// passes that limit. Both are exact, so which one runs changes no answer.
func (q *Query) Exceeds(r Rows, id int, bound float64) bool {
	if id < 0 || id >= len(r.meta) || len(q.codes) != r.n {
		return false
	}
	m := r.meta[id]
	shift := int(m.exp) - q.exp
	if shift < 0 || shift > maxShift {
		return false
	}
	t := (bound + m.err + q.err) * q.inv // scaling by 2^-eq is exact
	limit := t * t * (1 + 3*margin)
	if !(limit < 1<<62) { // also +Inf and NaN
		return false
	}
	x := r.codes[id*r.n : (id+1)*r.n]
	if vecDot != nil && closedFormFits(m.sumSq, shift) {
		return sumSqClosed(q.codes, q.sumSq, x, m.sumSq, shift) > uint64(limit)
	}
	return sumSqExceeds(q.codes, x, uint(shift), uint64(limit))
}

// sumSqExceeds reports whether Σ (q[i] − x[i]·2^shift)² > limit, testing once
// per block of 16. It only ever decides a rejection whose survivors are
// measured again exactly, so unlike the float64 distance it is free to keep
// four accumulators. Callers guarantee |q[i]| ≤ 2^14, shift ≤ maxShift and
// limit < 2^62, which keeps every partial sum below 2^63.
func sumSqExceeds(q []int16, x []int8, shift uint, limit uint64) bool {
	shift &= 31 // lets the compiler drop the oversized-shift guard
	q = q[:len(x)]
	var s0, s1, s2, s3 uint64
	i := 0
	for ; i+16 <= len(x); i += 16 {
		a, b := (*[16]int16)(q[i:]), (*[16]int8)(x[i:])
		d0 := int64(a[0]) - int64(b[0])<<shift
		d1 := int64(a[1]) - int64(b[1])<<shift
		d2 := int64(a[2]) - int64(b[2])<<shift
		d3 := int64(a[3]) - int64(b[3])<<shift
		s0 += uint64(d0 * d0)
		s1 += uint64(d1 * d1)
		s2 += uint64(d2 * d2)
		s3 += uint64(d3 * d3)
		d0 = int64(a[4]) - int64(b[4])<<shift
		d1 = int64(a[5]) - int64(b[5])<<shift
		d2 = int64(a[6]) - int64(b[6])<<shift
		d3 = int64(a[7]) - int64(b[7])<<shift
		s0 += uint64(d0 * d0)
		s1 += uint64(d1 * d1)
		s2 += uint64(d2 * d2)
		s3 += uint64(d3 * d3)
		d0 = int64(a[8]) - int64(b[8])<<shift
		d1 = int64(a[9]) - int64(b[9])<<shift
		d2 = int64(a[10]) - int64(b[10])<<shift
		d3 = int64(a[11]) - int64(b[11])<<shift
		s0 += uint64(d0 * d0)
		s1 += uint64(d1 * d1)
		s2 += uint64(d2 * d2)
		s3 += uint64(d3 * d3)
		d0 = int64(a[12]) - int64(b[12])<<shift
		d1 = int64(a[13]) - int64(b[13])<<shift
		d2 = int64(a[14]) - int64(b[14])<<shift
		d3 = int64(a[15]) - int64(b[15])<<shift
		s0 += uint64(d0 * d0)
		s1 += uint64(d1 * d1)
		s2 += uint64(d2 * d2)
		s3 += uint64(d3 * d3)
		if s0+s1+s2+s3 > limit {
			return true
		}
	}
	for ; i < len(x); i++ {
		d := int64(q[i]) - int64(x[i])<<shift
		s0 += uint64(d * d)
	}
	return s0+s1+s2+s3 > limit
}
