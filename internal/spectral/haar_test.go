package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/stats"
)

func TestHaarErrors(t *testing.T) {
	if _, err := FromValuesHaar(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FromValuesHaar(make([]float64, 12)); err != ErrPowerOfTwo {
		t.Error("expected ErrPowerOfTwo")
	}
}

func TestHaarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 16, 128, 1024} {
		x := randSeries(rng, n)
		h, err := FromValuesHaar(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := h.Values()
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip error at %d", n, i)
			}
		}
	}
}

// Property: the Haar basis is orthonormal — distances and energies match the
// time domain exactly, so all bound algebra carries over.
func TestHaarDistancePreservationProperty(t *testing.T) {
	f := func(seed int64, nExp uint8) bool {
		n := 1 << (2 + nExp%7) // 4..512
		rng := rand.New(rand.NewSource(seed))
		x, y := randSeries(rng, n), randSeries(rng, n)
		hx, err := FromValuesHaar(x)
		if err != nil {
			return false
		}
		hy, _ := FromValuesHaar(y)
		dH, err := Distance(hx, hy)
		if err != nil {
			return false
		}
		dT, _ := series.Euclidean(x, y)
		if math.Abs(dH-dT) > 1e-7*(1+dT) {
			return false
		}
		return math.Abs(hx.Energy()-sumSquares(x)) < 1e-7*(1+sumSquares(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHaarCompressedBoundsBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 128
		x := stats.Standardize(randSeries(rng, n))
		y := stats.Standardize(randSeries(rng, n))
		hx, err := FromValuesHaar(x)
		if err != nil {
			t.Fatal(err)
		}
		hy, _ := FromValuesHaar(y)
		d, _ := Distance(hx, hy)
		for _, m := range Methods() {
			c, err := Compress(hx, m, 8)
			if err != nil {
				t.Fatal(err)
			}
			lb, ub, err := c.SafeBounds(hy)
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-7 * (1 + d)
			if lb > d+tol || d > ub+tol {
				t.Errorf("haar %v: lb=%v d=%v ub=%v", m, lb, d, ub)
			}
		}
	}
}

func TestHaarBasisMismatchRejected(t *testing.T) {
	x := make([]float64, 16)
	hd, _ := FromValues(x)
	hh, _ := FromValuesHaar(x)
	if _, err := Distance(hd, hh); err != ErrMismatch {
		t.Error("expected ErrMismatch for cross-basis distance")
	}
	c, err := Compress(hh, BestMinError, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Bounds(hd); err != ErrMismatch {
		t.Error("expected ErrMismatch for cross-basis bounds")
	}
}

func TestHaarReconstructionOnSmoothSeries(t *testing.T) {
	// A piecewise-flat seasonal series compresses well under Haar; the
	// reconstruction from the best coefficients must beat zero-coefficients
	// trivially and equal sqrt(omitted energy).
	g := querylog.New(3)
	s := g.Exemplar(querylog.Halloween).Standardized()
	v := s.Values[:1024]
	h, err := FromValuesHaar(v)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(h, BestError, 32)
	if err != nil {
		t.Fatal(err)
	}
	re, err := c.ReconstructionError(v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re-math.Sqrt(c.Err)) > 1e-8 {
		t.Errorf("haar reconstruction error %v != sqrt(err) %v", re, math.Sqrt(c.Err))
	}
	total := math.Sqrt(sumSquares(v))
	if re > 0.6*total {
		t.Errorf("haar best-32 keeps too little energy: err %v of %v", re, total)
	}
}
