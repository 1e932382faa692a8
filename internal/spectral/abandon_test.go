package spectral

import (
	"math"
	"math/rand"
	"testing"
)

// storedPartials recomputes, with the kernel's own operations in the kernel's
// order, the partial sums of feature r's stored-row distance that
// BoundsBlockCut tests against its cut — the one after every fourth row and
// the finished sum, which is returned on its own too.
func storedPartials(a *Arena, ctx *QueryContext, r int) (tested []float64, distSq float64) {
	for j := a.starts[r]; j < a.starts[r+1]; j++ {
		t := ctx.tab[a.positions[j]]
		dre, dim := t.re-a.re[j], t.im-a.im[j]
		d := math.Sqrt(dre*dre + dim*dim)
		distSq += t.w * d * d
		if (j-a.starts[r])&3 == 3 {
			tested = append(tested, distSq)
		}
	}
	return append(tested, distSq), distSq
}

// checkAbandon holds the cut kernel to its contract on every feature of the
// arena, for cuts on and one ulp either side of everything the kernel could
// confuse them with:
//
//   - an entry is abandoned exactly when one of the partial sums the kernel
//     tests exceeds the cut, and is then reported as lb = ub = +Inf;
//   - an abandoned entry's finished lower bound is at least √cut, and strictly
//     above r when the cut is AbandonCut(r) — what lets a search drop it on
//     sight;
//   - an entry that is not abandoned gets the bits BoundsBlock and the scalar
//     boundsFast give it;
//   - BoundsAt, which a vantage point routes on, always finishes.
func checkAbandon(t *testing.T, feats []*Compressed, q *HalfSpectrum) {
	t.Helper()
	a, err := NewArena(feats)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ctx := NewQueryContext(q)
	up, down := math.Inf(1), math.Inf(-1)
	for r, c := range feats {
		for _, safe := range []bool{false, true} {
			lbW, ubW, err := c.boundsFast(ctx, safe)
			if err != nil {
				t.Fatalf("boundsFast: %v", err)
			}
			lbA, ubA, err := a.BoundsAt(ctx, r, safe)
			if err != nil {
				t.Fatalf("BoundsAt: %v", err)
			}
			if lbA != lbW || (ubA != ubW && !(math.IsInf(ubA, 1) && math.IsInf(ubW, 1))) {
				t.Errorf("feature %d safe=%v: BoundsAt [%v, %v], scalar [%v, %v]", r, safe, lbA, ubA, lbW, ubW)
			}
			if math.IsInf(lbA, 0) || math.IsNaN(lbA) {
				t.Errorf("feature %d safe=%v: BoundsAt lb = %v", r, safe, lbA)
			}
			tested, distSq := storedPartials(a, ctx, r)
			lbSq := lbW * lbW
			cuts := []float64{
				0, up, distSq, math.Nextafter(distSq, down), math.Nextafter(distSq, up),
				lbSq, math.Nextafter(lbSq, down), math.Nextafter(lbSq, up),
			}
			for _, p := range tested {
				cuts = append(cuts, p, math.Nextafter(p, down), math.Nextafter(p, up))
			}
			// Radii at and just inside the finished bound: the entry a search
			// must keep, and the nearest ones it may drop.
			radii := []float64{lbW, math.Nextafter(lbW, down), lbW * (1 - abandonMargin), lbW * (1 - 4*abandonMargin), lbW / 2, 0}
			for _, radius := range radii {
				cuts = append(cuts, AbandonCut(radius))
			}
			for i, cut := range cuts {
				if cut < 0 {
					continue
				}
				var lb, ub [1]float64
				n, err := a.BoundsBlockCut(ctx, []int32{int32(r)}, safe, cut, lb[:], ub[:])
				if err != nil {
					t.Fatalf("BoundsBlockCut: %v", err)
				}
				exceeds := false
				for _, p := range tested {
					exceeds = exceeds || p > cut
				}
				switch {
				case exceeds != (n == 1):
					t.Errorf("feature %d safe=%v cut %v: abandoned=%d, tested partial sums %v", r, safe, cut, n, tested)
				case n == 1:
					if !math.IsInf(lb[0], 1) || !math.IsInf(ub[0], 1) {
						t.Errorf("feature %d cut %v: abandoned entry reported as [%v, %v]", r, cut, lb[0], ub[0])
					}
					if lbW < math.Sqrt(cut) {
						t.Errorf("feature %d safe=%v: abandoned at cut %v (√ = %v) but its finished lb is %v", r, safe, cut, math.Sqrt(cut), lbW)
					}
					if at := i - (len(cuts) - len(radii)); at >= 0 && !(lbW > radii[at]) {
						t.Errorf("feature %d safe=%v: abandoned at AbandonCut(%v) but its finished lb is %v", r, safe, radii[at], lbW)
					}
				default:
					if lb[0] != lbW || (ub[0] != ubW && !(math.IsInf(ub[0], 1) && math.IsInf(ubW, 1))) {
						t.Errorf("feature %d safe=%v cut %v: completed [%v, %v], uncut [%v, %v]", r, safe, cut, lb[0], ub[0], lbW, ubW)
					}
				}
			}
		}
	}
}

// compressAllMethods compresses every series under method m with k kept
// coefficients.
func compressAllMethods(t *testing.T, series [][]float64, m Method, k int) []*Compressed {
	t.Helper()
	feats := make([]*Compressed, len(series))
	for i, x := range series {
		c, err := compressK(mustSpectrum(t, x), m, k)
		if err != nil {
			t.Fatalf("%v: compressK(k=%d): %v", m, k, err)
		}
		feats[i] = c
	}
	return feats
}

// The cut kernel's contract (checkAbandon) on random series and on the ones
// made of ties: constant, zero-padded, on the int8 grid, with one coefficient
// kept — where partial sums, finished sums and squared bounds coincide or sit
// an ulp apart.
func TestBoundsAbandonProperty(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(24))
	random := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	grid := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(int8(rng.Intn(256)))
		}
		return x
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3
	}
	padded := make([]float64, n)
	copy(padded, []float64{1, -1, 2, -2, 1, -1, 0, 3})
	series := [][]float64{random(), random(), random(), grid(), grid(), constant, make([]float64, n), padded}
	series = append(series, append([]float64(nil), series[0]...)) // a duplicate
	queries := [][]float64{random(), grid(), constant, padded, series[0], series[3]}
	for _, m := range Methods() {
		for _, k := range []int{1, 4, 8, 17} {
			feats := compressAllMethods(t, series, m, k)
			for _, q := range queries {
				checkAbandon(t, feats, mustSpectrum(t, q))
			}
		}
	}
}

// FuzzBoundsAbandon puts fuzz-derived features and queries to checkAbandon.
func FuzzBoundsAbandon(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 4, 4, 4})
	f.Add([]byte("a-bound-that-stops-when-it-has-decided"))
	f.Add([]byte{0x80, 0x7f, 0x00, 0xff, 0x55, 0xaa, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		const n = 32
		count := 1 + int(data[0])%5
		k := 1 + int(data[len(data)-1])%12
		series := make([][]float64, count)
		for i := range series {
			series[i], _ = fuzzSeries(append([]byte{byte(i)}, data...), n)
		}
		_, qv := fuzzSeries(data, n)
		for _, m := range Methods() {
			checkAbandon(t, compressAllMethods(t, series, m, k), mustSpectrum(t, qv))
		}
	})
}
