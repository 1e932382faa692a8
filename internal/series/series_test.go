package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fft"
	"repro/internal/stats"
)

var day0 = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// SquaredEuclidean returns the squared Euclidean distance.
func SquaredEuclidean(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, nil
}

// reconstructionError is the Euclidean distance between x and the inverse
// DFT of the given coefficients (position → value in the full-length
// spectrum; conjugate mirrors must be present explicitly).
func reconstructionError(x []float64, coeffs map[int]complex128) (float64, error) {
	X := make([]complex128, len(x))
	for pos, c := range coeffs {
		X[pos] = c
	}
	rec, err := fft.InverseReal(X)
	if err != nil {
		return 0, err
	}
	return Euclidean(x, rec)
}

func newTestSeries(n int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()*10 + 100
	}
	return &Series{ID: 1, Name: "test", Start: day0, Values: v}
}

func TestDateIndexRoundTrip(t *testing.T) {
	s := newTestSeries(1024, 1)
	for _, i := range []int{0, 1, 365, 1023} {
		if got := s.DateOf(i).Sub(s.Start); got != time.Duration(i)*24*time.Hour {
			t.Errorf("DateOf(%d) is %v after Start", i, got)
		}
	}
	if s.DateOf(366).Format("2006-01-02") != "2001-01-01" {
		// 2000 is a leap year: day 366 is Jan 1, 2001.
		t.Errorf("leap-year date math wrong: %v", s.DateOf(366))
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := newTestSeries(8, 2)
	c := s.Clone()
	c.Values[0] = -999
	if s.Values[0] == -999 {
		t.Fatal("Clone shares backing array")
	}
	if c.Name != s.Name || c.ID != s.ID || !c.Start.Equal(s.Start) {
		t.Fatal("Clone dropped metadata")
	}
}

func TestStandardized(t *testing.T) {
	s := newTestSeries(512, 3)
	z := s.Standardized()
	m, sd := stats.MeanStd(z.Values)
	if math.Abs(m) > 1e-9 || math.Abs(sd-1) > 1e-9 {
		t.Errorf("standardized mean/std = %v/%v", m, sd)
	}
	if s.Values[0] == z.Values[0] {
		t.Error("Standardized should not mutate the original")
	}
}

func TestEuclidean(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	d, err := Euclidean(a, b)
	if err != nil || d != 5 {
		t.Errorf("Euclidean = %v (err %v), want 5", d, err)
	}
	if _, err := Euclidean(a, []float64{1}); err != ErrLengthMismatch {
		t.Error("expected ErrLengthMismatch")
	}
	sq, err := SquaredEuclidean(a, b)
	if err != nil || sq != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", sq)
	}
}

func TestEuclideanEarlyAbandon(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range b {
		b[i] = 1
	}
	// True distance is 10.
	d, abandoned, err := EuclideanEarlyAbandon(a, b, 20)
	if err != nil || abandoned || d != 10 {
		t.Errorf("got d=%v abandoned=%v err=%v, want 10/false/nil", d, abandoned, err)
	}
	d, abandoned, err = EuclideanEarlyAbandon(a, b, 5)
	if err != nil || !abandoned || !math.IsInf(d, 1) {
		t.Errorf("got d=%v abandoned=%v err=%v, want Inf/true/nil", d, abandoned, err)
	}
	if _, _, err := EuclideanEarlyAbandon(a, b[:3], 5); err != ErrLengthMismatch {
		t.Error("expected ErrLengthMismatch")
	}
}

// Property: early abandon never changes the answer when the bound is loose.
func TestEarlyAbandonConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(256)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		exact, _ := Euclidean(a, b)
		d, abandoned, _ := EuclideanEarlyAbandon(a, b, exact+1)
		return !abandoned && math.Abs(d-exact) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpectrumParseval(t *testing.T) {
	s := newTestSeries(1024, 4).Standardized()
	X, err := s.Spectrum()
	if err != nil {
		t.Fatal(err)
	}
	var te, fe float64
	for _, v := range s.Values {
		te += v * v
	}
	for _, c := range X {
		fe += real(c)*real(c) + imag(c)*imag(c)
	}
	if math.Abs(te-fe) > 1e-6 {
		t.Errorf("time energy %v != freq energy %v", te, fe)
	}
}

func TestReconstructFullSpectrumIsExact(t *testing.T) {
	s := newTestSeries(64, 5)
	X, err := s.Spectrum()
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make(map[int]complex128, len(X))
	for i, c := range X {
		coeffs[i] = c
	}
	e, err := reconstructionError(s.Values, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-8 {
		t.Errorf("full-spectrum reconstruction error %v", e)
	}
}

func TestReconstructPartial(t *testing.T) {
	// Keeping only some coefficients must reconstruct with error equal to
	// the energy of the dropped ones (Parseval).
	s := newTestSeries(128, 6).Standardized()
	X, err := s.Spectrum()
	if err != nil {
		t.Fatal(err)
	}
	// Keep conjugate-symmetric pairs so the reconstruction stays real
	// (asymmetric sets would reconstruct a complex signal).
	n := len(X)
	kept := map[int]complex128{}
	for k := 0; k <= n/2; k += 3 {
		kept[k] = X[k]
		if k != 0 && k != n-k {
			kept[n-k] = X[n-k]
		}
	}
	dropped := 0.0
	for i, c := range X {
		if _, ok := kept[i]; !ok {
			re, im := real(c), imag(c)
			dropped += re*re + im*im
		}
	}
	e, err := reconstructionError(s.Values, kept)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-math.Sqrt(dropped)) > 1e-8 {
		t.Errorf("partial reconstruction error %v, want %v", e, math.Sqrt(dropped))
	}
}

func TestStringer(t *testing.T) {
	s := newTestSeries(10, 7)
	got := s.String()
	if got == "" || got[0] != 'S' {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkEuclidean1024(b *testing.B) {
	x := newTestSeries(1024, 8).Values
	y := newTestSeries(1024, 9).Values
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Euclidean(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEuclideanEarlyAbandonTight(b *testing.B) {
	x := newTestSeries(1024, 10).Values
	y := newTestSeries(1024, 11).Values
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EuclideanEarlyAbandon(x, y, 1); err != nil {
			b.Fatal(err)
		}
	}
}
