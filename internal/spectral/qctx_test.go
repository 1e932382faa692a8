package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/stats"
)

// Property: the fast context-based bounds agree with the reference
// implementation for every method, budget and random input.
func TestFastBoundsMatchReferenceProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(200)
		budget := 2 + int(budgetRaw)%16
		x := stats.Standardize(randSeries(rng, n))
		y := stats.Standardize(randSeries(rng, n))
		hx := mustSpectrum(t, x)
		hy := mustSpectrum(t, y)
		ctx := NewQueryContext(hy)
		for _, m := range Methods() {
			c, err := Compress(hx, m, budget)
			if err != nil {
				return false
			}
			lbS, ubS, err := c.Bounds(hy)
			if err != nil {
				return false
			}
			lbF, ubF, err := c.BoundsFast(ctx)
			if err != nil {
				return false
			}
			tol := 1e-7 * (1 + lbS + ubS)
			if math.Abs(lbS-lbF) > tol {
				t.Logf("%v: lb %v vs fast %v", m, lbS, lbF)
				return false
			}
			if !math.IsInf(ubS, 1) && math.Abs(ubS-ubF) > tol {
				t.Logf("%v: ub %v vs fast %v", m, ubS, ubF)
				return false
			}
			if math.IsInf(ubS, 1) != math.IsInf(ubF, 1) {
				return false
			}
			// Safe variants too.
			lbS2, ubS2, _ := c.SafeBounds(hy)
			lbF2, ubF2, err := c.SafeBoundsFast(ctx)
			if err != nil {
				return false
			}
			if math.Abs(lbS2-lbF2) > tol {
				return false
			}
			if !math.IsInf(ubS2, 1) && math.Abs(ubS2-ubF2) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFastBoundsOnQueryLogs(t *testing.T) {
	g := querylog.New(40)
	data := querylog.StandardizeAll(g.Dataset(25))
	q := g.Queries(1)[0].Standardized()
	hq := mustSpectrum(t, q.Values)
	ctx := NewQueryContext(hq)
	for _, s := range data {
		hs := mustSpectrum(t, s.Values)
		for _, budget := range []int{8, 16, 32} {
			c, err := Compress(hs, BestMinError, budget)
			if err != nil {
				t.Fatal(err)
			}
			lbS, ubS, _ := c.Bounds(hq)
			lbF, ubF, err := c.BoundsFast(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lbS-lbF) > 1e-7*(1+lbS) || math.Abs(ubS-ubF) > 1e-7*(1+ubS) {
				t.Fatalf("%s budget %d: slow (%v,%v) vs fast (%v,%v)",
					s.Name, budget, lbS, ubS, lbF, ubF)
			}
		}
	}
}

func TestFastBoundsMismatch(t *testing.T) {
	h8 := mustSpectrum(t, make([]float64, 8))
	h16 := mustSpectrum(t, make([]float64, 16))
	c, err := compressK(h8, BestMinError, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.BoundsFast(NewQueryContext(h16)); err != ErrMismatch {
		t.Error("expected ErrMismatch")
	}
}

// comparatorMoments is what NewQueryContext computed before its radix order:
// the bins sorted by slices.SortFunc under the (magnitude, bin) comparator,
// then the same prefix sums.
func comparatorMoments(q *HalfSpectrum) (sorted, pw, pwm, pwm2 []float64) {
	tmp := make([]magBin, q.Bins())
	for b := range tmp {
		tmp[b] = magBin{m: absFast(q.Coeffs[b]), bin: b}
	}
	slices.SortFunc(tmp, func(a, b magBin) int {
		switch {
		case a.m < b.m:
			return -1
		case a.m > b.m:
			return 1
		default:
			return a.bin - b.bin
		}
	})
	pw, pwm, pwm2 = []float64{0}, []float64{0}, []float64{0}
	for i, e := range tmp {
		w := q.Weight(e.bin)
		sorted = append(sorted, e.m)
		pw = append(pw, pw[i]+w)
		pwm = append(pwm, pwm[i]+w*e.m)
		pwm2 = append(pwm2, pwm2[i]+w*e.m*e.m)
	}
	return sorted, pw, pwm, pwm2
}

// The context's radix order is the comparator sort's order, so its sorted
// magnitudes and prefix sums are the comparator's bits — on the spectra whose
// magnitudes tie across bins of different weight (zero-padded, constant, ±1
// alternating with its Nyquist bin, hand-built duplicates), on random ones,
// at odd and even N, and in the Haar basis.
func TestQueryContextOrderIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := map[string]*HalfSpectrum{
		"duplicated magnitudes": {N: 10, Coeffs: []complex128{0.5, 0.5i, -0.5, complex(0.3, 0.4), 0.5, complex(-0.4, 0.3)}},
		"one magnitude":         {N: 9, Coeffs: []complex128{1, 1i, -1, -1i, 1}},
	}
	for _, n := range []int{7, 8, 64, 255, 1024} {
		padded, constant, alternating := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range padded {
			if i < n/3 {
				padded[i] = rng.NormFloat64()
			}
			constant[i] = 2
			alternating[i] = float64(1 - 2*(i%2))
		}
		random := randSeries(rng, n)
		grid := make([]float64, n)
		for i := range grid {
			grid[i] = float64(rng.Intn(3) - 1)
		}
		for name, x := range map[string][]float64{"zero-padded": padded, "constant": constant,
			"alternating": alternating, "random": random, "integer grid": grid} {
			cases[fmt.Sprintf("%s n=%d", name, n)] = mustSpectrum(t, x)
			if n&(n-1) == 0 {
				h, err := FromValuesHaar(x)
				if err != nil {
					t.Fatal(err)
				}
				cases[fmt.Sprintf("haar %s n=%d", name, n)] = h
			}
		}
	}
	for name, q := range cases {
		ctx := NewQueryContext(q)
		sorted, pw, pwm, pwm2 := comparatorMoments(q)
		if !sameBits(ctx.sorted, sorted) || !sameBits(ctx.pw, pw) ||
			!sameBits(ctx.pwm, pwm) || !sameBits(ctx.pwm2, pwm2) {
			t.Errorf("%s: context moments differ from the comparator sort's", name)
		}
	}
}

func BenchmarkBoundsSlow1024(b *testing.B) {
	g := querylog.New(41)
	s := g.Exemplar(querylog.Cinema).Standardized()
	q := g.Exemplar(querylog.Nordstrom).Standardized()
	hs := mustSpectrum(b, s.Values)
	hq := mustSpectrum(b, q.Values)
	c, err := Compress(hs, BestMinError, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Bounds(hq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundsFast1024(b *testing.B) {
	g := querylog.New(41)
	s := g.Exemplar(querylog.Cinema).Standardized()
	q := g.Exemplar(querylog.Nordstrom).Standardized()
	hs := mustSpectrum(b, s.Values)
	hq := mustSpectrum(b, q.Values)
	c, err := Compress(hs, BestMinError, 32)
	if err != nil {
		b.Fatal(err)
	}
	ctx := NewQueryContext(hq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.BoundsFast(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFromValuesBatch(t *testing.T) {
	g := querylog.New(60)
	data := querylog.StandardizeAll(g.Dataset(37))
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s.Values
	}
	batch, err := FromValuesBatch(values)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		want, err := FromValues(v)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].N != want.N || len(batch[i].Coeffs) != len(want.Coeffs) {
			t.Fatalf("series %d: shape mismatch", i)
		}
		for k := range want.Coeffs {
			if batch[i].Coeffs[k] != want.Coeffs[k] {
				t.Fatalf("series %d bin %d: %v vs %v", i, k, batch[i].Coeffs[k], want.Coeffs[k])
			}
		}
	}
	if _, err := FromValuesBatch([][]float64{{1, 2}, nil}); err == nil {
		t.Error("expected error for an empty sequence in the batch")
	}
	if out, err := FromValuesBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v %v", out, err)
	}
}
