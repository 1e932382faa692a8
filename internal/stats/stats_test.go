package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m, sd := MeanStd(x); !almostEq(m, 5, 1e-12) || !almostEq(sd*sd, 4, 1e-12) || !almostEq(sd, 2, 1e-12) {
		t.Errorf("MeanStd = %v, %v; want mean 5, variance 4, std 2", m, sd)
	}
	if m, sd := MeanStd(nil); m != 0 || sd != 0 {
		t.Errorf("MeanStd(nil) = %v, %v; want 0, 0", m, sd)
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()*10 + 3
		}
		m, s := MeanStd(x)
		if !almostEq(m, Mean(x), 1e-9) {
			t.Fatalf("MeanStd mean %v != Mean %v", m, Mean(x))
		}
		ss := 0.0
		for _, v := range x {
			ss += (v - Mean(x)) * (v - Mean(x))
		}
		if std := math.Sqrt(ss / float64(n)); !almostEq(s, std, 1e-9) {
			t.Fatalf("MeanStd std %v != two-pass std %v", s, std)
		}
	}
}

func TestStandardize(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	z := Standardize(x)
	if x[0] != 1 {
		t.Fatal("Standardize mutated its input")
	}
	m, s := MeanStd(z)
	if !almostEq(m, 0, 1e-12) || !almostEq(s, 1, 1e-12) {
		t.Errorf("standardized mean/std = %v/%v, want 0/1", m, s)
	}
}

func TestStandardizeFlatSeries(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	z := Standardize(x)
	for i, v := range z {
		if v != 0 {
			t.Errorf("flat series z[%d] = %v, want 0", i, v)
		}
	}
}

// Property: standardization is idempotent (z-scoring a z-scored non-flat
// series leaves it unchanged up to float error).
func TestStandardizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		z1 := Standardize(x)
		if _, sd := MeanStd(z1); sd == 0 {
			return true // degenerate draw; nothing to check
		}
		z2 := Standardize(z1)
		for i := range z1 {
			if !almostEq(z1[i], z2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	ma, err := MovingAverage(nil, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !almostEq(ma[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %v, want %v", i, ma[i], want[i])
		}
	}
	if _, err := MovingAverage(nil, x, 0); err == nil {
		t.Error("expected error for window 0")
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	x := []float64{4, -2, 9}
	ma, err := MovingAverage(nil, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if ma[i] != x[i] {
			t.Errorf("window-1 MA[%d] = %v, want identity %v", i, ma[i], x[i])
		}
	}
}

// Property: a trailing moving average of a constant series is that constant,
// and the MA always lies within [min, max] of the input.
func TestMovingAverageBoundsProperty(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		w := 1 + int(wRaw)%30
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*100 - 50
		}
		ma, err := MovingAverage(nil, x, w)
		if err != nil {
			return false
		}
		lo, hi := minOf(x), Max(x)
		for _, v := range ma {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := []float64{3, -1, 7, 2}
	if minOf(x) != -1 || Max(x) != 7 {
		t.Errorf("minOf/Max = %v/%v", minOf(x), Max(x))
	}
	if !math.IsInf(minOf(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty-input sentinels wrong")
	}
}

func TestExponentialFitAndThreshold(t *testing.T) {
	// Sample from Exp(λ=2); MLE should recover λ ≈ 2.
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 200000)
	for i := range x {
		x[i] = rng.ExpFloat64() / 2
	}
	dist, err := FitExponential(x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(dist.Lambda, 2, 0.05) {
		t.Errorf("fitted lambda = %v, want ~2", dist.Lambda)
	}
	// Paper §5.1 example: mean power 0.02, p = 1e-4 → Tp = −0.02·ln(1e-4)
	// = 0.1842. (The paper prints 0.0184, a factor-of-10 typo; the formula
	// Tp = −µ·ln(p) it derives gives 0.1842.)
	d := Exponential{Lambda: 1 / 0.02}
	tp := d.TailThreshold(1e-4)
	if !almostEq(tp, 0.18421, 0.0002) {
		t.Errorf("threshold = %v, want ~0.1842 (paper §5.1 example, typo-corrected)", tp)
	}
}

func TestExponentialCDFAndQuantileRoundTrip(t *testing.T) {
	d := Exponential{Lambda: 1.7}
	if d.PDF(-1) != 0 || d.Tail(-1) != 1 {
		t.Error("negative-argument conventions wrong")
	}
	if !math.IsNaN(d.TailThreshold(0)) || !math.IsNaN(d.TailThreshold(1)) {
		t.Error("out-of-domain arguments should give NaN")
	}
}

// Property: TailThreshold inverts Tail: P(X >= Tp) == p.
func TestTailThresholdProperty(t *testing.T) {
	f := func(lraw, praw uint16) bool {
		lambda := 0.01 + float64(lraw%1000)/100
		p := (1 + float64(praw%9998)) / 10000 // in (0,1)
		d := Exponential{Lambda: lambda}
		tp := d.TailThreshold(p)
		return almostEq(d.Tail(tp), p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FitExponential([]float64{0, 0}); err == nil {
		t.Error("expected error for non-positive mean")
	}
}

func TestHistogram(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := NewHistogram(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 10 {
		t.Errorf("N = %d, want 10", h.N)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("total counts = %d, want 10", total)
	}
	// Density should integrate to ~1.
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	integral := 0.0
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if !almostEq(integral, 1, 1e-12) {
		t.Errorf("density integral = %v, want 1", integral)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Errorf("flat data should fill bin 0, got %v", h.Counts)
	}
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("expected error for zero bins")
	}
}

func TestHistogramExponentialShape(t *testing.T) {
	// The PSD histogram of exponential data should fit an exponential far
	// better than uniform data does (fig. 12 sanity).
	rng := rand.New(rand.NewSource(1))
	exp := make([]float64, 50000)
	uni := make([]float64, 50000)
	for i := range exp {
		exp[i] = rng.ExpFloat64()
		uni[i] = rng.Float64() * 3
	}
	he, _ := NewHistogram(exp, 40)
	hu, _ := NewHistogram(uni, 40)
	de, _ := FitExponential(exp)
	du, _ := FitExponential(uni)
	if he.ExponentialFitError(de) >= hu.ExponentialFitError(du) {
		t.Errorf("exponential data fit error %v should beat uniform %v",
			he.ExponentialFitError(de), hu.ExponentialFitError(du))
	}
}

func BenchmarkMeanStd(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MeanStd(x)
	}
}

func BenchmarkMovingAverage(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 31)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MovingAverage(nil, x, 30); err != nil {
			b.Fatal(err)
		}
	}
}
