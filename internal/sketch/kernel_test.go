package sketch

import (
	"math"
	"math/rand"
	"testing"
)

// refSumSq is Σ(q[i] − x[i]·2^shift)² term by term, the definition both
// kernels answer to. Callers keep it below 2^64.
func refSumSq(q []int16, x []int8, shift int) uint64 {
	var s uint64
	for i := range x {
		d := int64(q[i]) - int64(x[i])<<shift
		s += uint64(d * d)
	}
	return s
}

// codeShapes are the code vectors the differential test pairs up: random
// ones, zero rows and queries, and every sign pattern of the extremes
// ±2^14 × ±127, which put the largest value the proof allows into every lane
// of the kernel.
var codeShapes = []string{"random", "zero-row", "zero-query", "max+max", "max-max", "-max+max", "-max-max", "alternating"}

func codeShape(rng *rand.Rand, n int, shape string) ([]int16, []int8) {
	q, x := make([]int16, n), make([]int8, n)
	for i := range q {
		switch shape {
		case "random", "zero-row", "zero-query":
			q[i] = int16(rng.Intn(2<<queryBits+1) - 1<<queryBits)
			x[i] = int8(rng.Intn(255) - 127)
		case "max+max":
			q[i], x[i] = 1<<queryBits, 127
		case "max-max":
			q[i], x[i] = 1<<queryBits, -127
		case "-max+max":
			q[i], x[i] = -1<<queryBits, 127
		case "-max-max":
			q[i], x[i] = -1<<queryBits, -127
		case "alternating":
			q[i], x[i] = 1<<queryBits, -127
			if i%2 == 1 {
				q[i], x[i] = -q[i], -x[i]
			}
		}
	}
	switch shape {
	case "zero-row":
		clear(x)
	case "zero-query":
		clear(q)
	}
	return q, x
}

// sketchOf wraps raw codes as a one-row sketch and a query whose steps differ
// by shift, with no quantisation error, so that Exceeds compares the integer
// sum with bound² and nothing else.
func sketchOf(q []int16, x []int8, shift int) (*Query, Rows) {
	rows := Rows{n: len(x), codes: x, meta: []rowMeta{{sumSq: sumSqOf(x), exp: int8(shift)}}}
	return &Query{codes: q, inv: 1, sumSq: sumSqOf(q)}, rows
}

// The vector path and the portable one compute the same exact integer and so
// return the same boolean: over every length from 1 to 4 100 and lengths that
// cross the kernel's 2^14-point chunk (most are not multiples of 32, so the Go
// tail runs too), every shift, random, zero and all-extreme codes, and bounds
// that put the limit on, just under and just over the sum.
func TestVectorMatchesPortable(t *testing.T) {
	if vecDot == nil {
		t.Skip("no vector kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(17))
	lengths := []int{vecChunk - 1, vecChunk, vecChunk + 1, vecChunk + 32, vecChunk + 63, 2*vecChunk + 31, 40000}
	for n := 1; n <= 4100; n++ {
		lengths = append(lengths, n)
	}
	for li, n := range lengths {
		// Every length gets one shape in turn (the long ones every shape) at
		// an outermost shift and a random one, with the bound on and a hair
		// either side of the sum; every 97th gets every shape at every shift,
		// and bounds further out as well.
		shifts := []int{li % 2 * maxShift, rng.Intn(maxShift + 1)}
		spread := []float64{1 - 1e-8, 1, 1 + 1e-8}
		thorough := n%97 == 0
		if thorough {
			shifts = shifts[:0]
			for s := 0; s <= maxShift; s++ {
				shifts = append(shifts, s)
			}
			spread = append(spread, 0, 1-1e-6, 1+1e-6, 2)
		}
		for si, shape := range codeShapes {
			if !thorough && n <= 4100 && si != li%len(codeShapes) {
				continue
			}
			q, x := codeShape(rng, n, shape)
			for _, shift := range shifts {
				query, rows := sketchOf(q, x, shift)
				if !closedFormFits(rows.meta[0].sumSq, shift) {
					t.Fatalf("%s n=%d shift=%d: the closed form does not fit a row this short", shape, n, shift)
				}
				want := refSumSq(q, x, shift)
				if got := sumSqClosed(q, query.sumSq, x, rows.meta[0].sumSq, shift); got != want {
					t.Fatalf("%s n=%d shift=%d: closed form %d, term by term %d", shape, n, shift, got, want)
				}
				// bound² is the limit up to the margin; these straddle √sum.
				root := math.Sqrt(float64(want))
				for _, f := range spread {
					exceedsOnEveryKernel(t, query, rows, root*f, "%s n=%d shift=%d sum=%d", shape, n, shift, want)
				}
			}
		}
	}
}

// Past 2^16 points a row's ΣX²·2^(2·shift) can leave the range the closed
// form is proven for. Such a pair takes the portable loop, which still
// answers both ways; one shift lower the closed form is exact again, at the
// largest sums the proof admits.
func TestClosedFormFallsBackBeforeOverflow(t *testing.T) {
	if vecDot == nil {
		t.Skip("no vector kernel in this build or on this CPU")
	}
	// The shortest row of ±127 with ΣX² ≥ 2^30. Codes of the query's sign
	// keep the sum itself just under the 2^62 that Exceeds accepts as a limit,
	// so the fall-back can be seen to answer no as well as yes.
	const n = 1<<30/(127*127) + 1
	q, x := make([]int16, n), make([]int8, n)
	for i := range q {
		q[i], x[i] = 1<<queryBits, 127
	}
	query, rows := sketchOf(q, x, maxShift)
	if closedFormFits(rows.meta[0].sumSq, maxShift) {
		t.Fatalf("ΣX² = %d at shift %d is taken to fit", rows.meta[0].sumSq, maxShift)
	}
	calls := 0
	dot := vecDot
	vecDot = func(q *int16, x *int8, n int) int64 { calls++; return dot(q, x, n) }
	defer func() { vecDot = dot }()
	root := math.Sqrt(float64(refSumSq(q, x, maxShift)))
	if !query.Exceeds(rows, 0, root*(1-1e-3)) || query.Exceeds(rows, 0, root*(1+1e-4)) {
		t.Errorf("the fall-back does not place the pair %v code units apart", root)
	}
	if calls != 0 {
		t.Errorf("the vector kernel ran %d times on a pair the closed form does not fit", calls)
	}

	const below = maxShift - 1
	if !closedFormFits(rows.meta[0].sumSq, below) {
		t.Fatalf("ΣX² = %d at shift %d is taken not to fit", rows.meta[0].sumSq, below)
	}
	for i := range x {
		x[i] = -127 // against the query's sign: the largest sum these lengths give
	}
	want := refSumSq(q, x, below)
	if got := sumSqClosed(q, query.sumSq, x, rows.meta[0].sumSq, below); got != want || calls != (n+vecChunk-1)/vecChunk {
		t.Errorf("closed form at shift %d: %d in %d kernel calls, want %d in %d", below, got, calls, want, (n+vecChunk-1)/vecChunk)
	}
}

// Rows and queries the sketch cannot represent are decided by no kernel.
func TestNoKernelDecidesTheUnsketched(t *testing.T) {
	fine, bad := make([]float64, 64), make([]float64, 64)
	for i := range fine {
		fine[i], bad[i] = float64(i%7), float64(i%5)
	}
	bad[40] = math.NaN()
	rows := NewRows(64)
	rows.Append(fine)
	rows.Append(bad)
	ForEachKernel(func(kernel string) {
		if new(Query).Set(fine).Exceeds(rows, 1, 0) || new(Query).Set(bad).Exceeds(rows, 0, 0) {
			t.Errorf("%s: decided an unsketched row or query", kernel)
		}
		if !new(Query).Set(bad[:40]).Exceeds(Rows{n: 40, codes: rows.codes[:40], meta: rows.meta[:1]}, 0, 1) {
			t.Errorf("%s: a sketched pair 30 apart was not rejected at bound 1", kernel)
		}
	})
	if err := rows.CheckSums(); err != nil {
		t.Error(err)
	}
}

// ForEachKernel always offers the portable kernel, offers the vector one
// exactly where Kernel names it, and leaves the selection as it found it.
func TestForEachKernelRestoresTheSelection(t *testing.T) {
	before := Kernel()
	var seen []string
	ForEachKernel(func(kernel string) {
		seen = append(seen, kernel)
		if Kernel() != kernel || (vecDot == nil) != (kernel == "portable") {
			t.Errorf("inside %q: Kernel() = %q, vector kernel set: %v", kernel, Kernel(), vecDot != nil)
		}
	})
	if seen[0] != "portable" || seen[len(seen)-1] != before || len(seen) > 2 {
		t.Errorf("kernels offered %v on a machine running %q", seen, before)
	}
	if Kernel() != before {
		t.Errorf("Kernel() = %q afterwards, was %q", Kernel(), before)
	}
}
