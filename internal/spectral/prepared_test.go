package spectral

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stats"
)

// referenceMoments recomputes a context's sorted magnitudes and prefix sums
// the slow, obviously ordered way: bins stably sorted by magnitude, i.e. by
// (magnitude, bin index).
func referenceMoments(q *HalfSpectrum) (sorted, pw, pwm, pwm2 []float64) {
	bins := make([]int, q.Bins())
	for b := range bins {
		bins[b] = b
	}
	sort.SliceStable(bins, func(i, j int) bool {
		return absFast(q.Coeffs[bins[i]]) < absFast(q.Coeffs[bins[j]])
	})
	pw, pwm, pwm2 = []float64{0}, []float64{0}, []float64{0}
	for i, b := range bins {
		m, w := absFast(q.Coeffs[b]), q.Weight(b)
		sorted = append(sorted, m)
		pw = append(pw, pw[i]+w)
		pwm = append(pwm, pwm[i]+w*m)
		pwm2 = append(pwm2, pwm2[i]+w*m*m)
	}
	return sorted, pw, pwm, pwm2
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Equal magnitudes are routine (the zero bins of a constant or padded
// series) and bins carry different Parseval weights, so the order inside a
// tie reaches the prefix sums. The context must order ties by bin index —
// a total order, independent of the sort algorithm.
func TestQueryContextOrdersTiesByBin(t *testing.T) {
	padded := make([]float64, 64)
	for i := 0; i < 8; i++ {
		padded[i] = float64(i%3) - 1
	}
	cases := map[string]*HalfSpectrum{
		// Weights 1,2,2,2,1; every magnitude tied across differing weights.
		"hand-built ties": {N: 8, Coeffs: []complex128{0.3, 0.1i, complex(0, -0.3), -0.1, 0.3}},
		"all-zero":        mustSpectrum(t, make([]float64, 32)),
		"padded":          mustSpectrum(t, padded),
		"odd length":      mustSpectrum(t, stats.Standardize([]float64{1, 5, 2, 5, 1, 5, 2})),
	}
	for name, q := range cases {
		ctx := NewQueryContext(q)
		sorted, pw, pwm, pwm2 := referenceMoments(q)
		if !sameBits(ctx.sorted, sorted) || !sameBits(ctx.pw, pw) ||
			!sameBits(ctx.pwm, pwm) || !sameBits(ctx.pwm2, pwm2) {
			t.Errorf("%s: context moments differ from the (magnitude, bin) reference", name)
		}
		if n := len(ctx.tab); n < q.Bins() || n&(n-1) != 0 || n >= 2*q.Bins() {
			t.Errorf("%s: table of %d rows for %d bins", name, n, q.Bins())
		}
		for b := 0; b < q.Bins(); b++ {
			want := qbin{w: q.Weight(b), m: absFast(q.Coeffs[b]), re: real(q.Coeffs[b]), im: imag(q.Coeffs[b])}
			if ctx.tab[b] != want {
				t.Errorf("%s: per-bin tables wrong at bin %d", name, b)
			}
		}
	}
}

// Building a second context must not disturb the first: the sort scratch is
// pooled, the context's own tables are not.
func TestQueryContextOwnsItsTables(t *testing.T) {
	a := mustSpectrum(t, stats.Standardize([]float64{1, 2, 4, 8, 16, 32, 64, 128}))
	b := mustSpectrum(t, stats.Standardize([]float64{9, 1, 8, 2, 7, 3, 6, 4}))
	ca := NewQueryContext(a)
	keep := append([]float64(nil), ca.pwm2...)
	NewQueryContext(b)
	if !sameBits(ca.pwm2, keep) {
		t.Fatal("a later NewQueryContext overwrote an earlier context")
	}
}

func TestPrepare(t *testing.T) {
	x := stats.Standardize([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	p, err := Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	if &p.Values()[0] != &x[0] {
		t.Error("Prepare must retain the values, not copy them")
	}
	want := NewQueryContext(mustSpectrum(t, x))
	got := p.Context()
	if !sameBits(got.sorted, want.sorted) || !sameBits(got.pwm2, want.pwm2) || !slices.Equal(got.tab, want.tab) {
		t.Error("prepared context differs from FromValues + NewQueryContext")
	}
	if _, err := Prepare(nil); err == nil {
		t.Error("Prepare(nil) must fail")
	}

	// A released Prepared drops its values, and a Prepared that is handed
	// out again — buffers sized by a longer query — holds exactly what new
	// ones would: spectrum, sketch codes and context, padded table rows
	// included, at an even and at an odd length.
	p.Release()
	if p.Values() != nil {
		t.Error("Release must drop the values")
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1024, 128, 129, 8} {
		v := stats.Standardize(randSeries(rng, n))
		p, err := Prepare(v)
		if err != nil {
			t.Fatal(err)
		}
		spec := mustSpectrum(t, v)
		want := NewQueryContext(spec)
		got := p.Context()
		if !slices.Equal(got.q.Coeffs, spec.Coeffs) || got.q.N != n ||
			!sameBits(got.sorted, want.sorted) || !sameBits(got.pw, want.pw) ||
			!sameBits(got.pwm, want.pwm) || !sameBits(got.pwm2, want.pwm2) ||
			!slices.Equal(got.tab, want.tab) || got.totalWM2 != want.totalWM2 {
			t.Errorf("n=%d: a reused Prepared's spectrum or context differs from new ones", n)
		}
		if !reflect.DeepEqual(p.Sketch(), new(sketch.Query).Set(v)) {
			t.Errorf("n=%d: a reused Prepared's sketch query differs from a new one", n)
		}
		p.Release()
	}
}

// BenchmarkPrepare1024 is a query's preparation at the served length, as a
// request pays it: the half spectrum, the bound context and the sketch query
// of one z-scored row, into pooled buffers, and their release.
func BenchmarkPrepare1024(b *testing.B) {
	x := stats.Standardize(randSeries(rand.New(rand.NewSource(5)), 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Prepare(x)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
