package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// earlyAbandonRef is the per-element definition EuclideanEarlyAbandon must
// match bit for bit: one accumulator, the bound tested after every element.
func earlyAbandonRef(a, b []float64, bound float64) (float64, bool) {
	limit := bound * bound
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > limit {
			return math.Inf(1), true
		}
	}
	return math.Sqrt(sum), false
}

func checkAbandonMatchesRef(t *testing.T, a, b []float64, bound float64) bool {
	t.Helper()
	wantD, wantAb := earlyAbandonRef(a, b, bound)
	gotD, gotAb, err := EuclideanEarlyAbandon(a, b, bound)
	if err != nil {
		t.Errorf("n=%d bound=%v: %v", len(a), bound, err)
		return false
	}
	if gotAb != wantAb || math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Errorf("n=%d bound=%v: got (%v, %v), per-element reference (%v, %v)",
			len(a), bound, gotD, gotAb, wantD, wantAb)
		return false
	}
	return true
}

// partialBounds returns, for every prefix of (a, b), the bound whose square
// is exactly that partial sum — and its two float neighbours — so the
// abandon decision is probed on, just below and just above every element.
func partialBounds(a, b []float64) []float64 {
	var out []float64
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		r := math.Sqrt(sum)
		out = append(out, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
	}
	return out
}

func TestBlockedEarlyAbandonMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), -1, 1e-300, 1e300}
	for n := 0; n <= 70; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			// Small integers keep every partial sum exactly representable,
			// so a bound can sit exactly on one.
			a[i], b[i] = float64(rng.Intn(9)), float64(rng.Intn(9))
		}
		for _, bound := range append(partialBounds(a, b), specials...) {
			checkAbandonMatchesRef(t, a, b, bound)
		}
		// Poison one element at a time: NaN and ±Inf before, on and after
		// the point where the bound is crossed, in every block position.
		for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for pos := 0; pos < n; pos++ {
				pa := append([]float64(nil), a...)
				pa[pos] = poison
				for _, bound := range append(partialBounds(a, b), specials...) {
					checkAbandonMatchesRef(t, pa, b, bound)
				}
			}
		}
	}
}

func TestBlockedEarlyAbandonProperty(t *testing.T) {
	prop := func(seed int64, n uint8, frac float64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n) % 71
		a, b := make([]float64, m), make([]float64, m)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		exact, _ := Euclidean(a, b)
		// frac is arbitrary; fold it into [0, 2) so bounds land on both
		// sides of the exact distance.
		bound := exact * math.Abs(math.Mod(frac, 2))
		ok := checkAbandonMatchesRef(t, a, b, bound)
		for _, pb := range partialBounds(a, b) {
			ok = checkAbandonMatchesRef(t, a, b, pb) && ok
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
