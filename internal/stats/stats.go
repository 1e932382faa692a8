// Package stats provides the small statistical toolkit the query-mining
// system is built on: moments, standardization, moving averages, histograms
// and the exponential-tail threshold used by the period detector.
//
// Everything operates on []float64 and never mutates its input unless the
// function name says so (e.g. StandardizeInPlace).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of x. It returns 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x (denominator n).
// It returns 0 for inputs of length < 1.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	ss := 0.0
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// MeanStd returns both the mean and population standard deviation of x in a
// single pass (Welford's algorithm), which is cheaper and more numerically
// stable than calling Mean and Std separately.
func MeanStd(x []float64) (mean, std float64) {
	if len(x) == 0 {
		return 0, 0
	}
	var m, m2 float64
	for i, v := range x {
		delta := v - m
		m += delta / float64(i+1)
		m2 += delta * (v - m)
	}
	return m, math.Sqrt(m2 / float64(len(x)))
}

// Sum returns the sum of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// SumSquares returns Σ x_i².
func SumSquares(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// Energy returns the signal energy Σ x_i² (an alias of SumSquares kept for
// readability at call sites that reason about spectra).
func Energy(x []float64) float64 { return SumSquares(x) }

// Standardize returns a new slice holding (x - mean) / std.
// If the standard deviation is zero (constant series) the returned slice is
// all zeros, which is the conventional behaviour for z-scoring a flat signal.
func Standardize(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	StandardizeInPlace(out)
	return out
}

// StandardizeInPlace z-scores x in place and returns the mean and standard
// deviation it used. Flat series become all zeros. Finite values whose moments
// overflow (a standard deviation of +Inf, a NaN mean) leave x zeros or NaNs; a
// caller that must not store or search such a row checks the moments.
func StandardizeInPlace(x []float64) (mean, std float64) {
	m, s := MeanStd(x)
	if s == 0 {
		for i := range x {
			x[i] = 0
		}
		return m, s
	}
	for i := range x {
		x[i] = (x[i] - m) / s
	}
	return m, s
}

// MovingAverage returns the trailing moving average of x with window w.
// Element i of the result averages x[max(0,i-w+1) .. i]; the warm-up prefix
// therefore averages over fewer than w points instead of being dropped, so the
// output has the same length as the input. w must be >= 1.
func MovingAverage(x []float64, w int) ([]float64, error) {
	if w < 1 {
		return nil, errors.New("stats: moving-average window must be >= 1")
	}
	out := make([]float64, len(x))
	sum := 0.0
	for i, v := range x {
		sum += v
		if i >= w {
			sum -= x[i-w]
			out[i] = sum / float64(w)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out, nil
}

// CenteredMovingAverage returns the moving average with a window centered on
// each element (half-window on each side), shrinking near the boundaries.
// It is used for display purposes; the burst detector uses the trailing form.
func CenteredMovingAverage(x []float64, w int) ([]float64, error) {
	if w < 1 {
		return nil, errors.New("stats: moving-average window must be >= 1")
	}
	half := w / 2
	out := make([]float64, len(x))
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(x) {
			hi = len(x) - 1
		}
		out[i] = Mean(x[lo : hi+1])
	}
	return out, nil
}

// Min returns the minimum of x. It returns +Inf for empty input.
func Min(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x. It returns -Inf for empty input.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element, or -1 for empty input.
func ArgMax(x []float64) int {
	idx := -1
	m := math.Inf(-1)
	for i, v := range x {
		if v > m {
			m = v
			idx = i
		}
	}
	return idx
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns an error if the lengths differ or either input is empty or flat.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	mx, sx := MeanStd(x)
	my, sy := MeanStd(y)
	if sx == 0 || sy == 0 {
		return 0, errors.New("stats: correlation undefined for constant series")
	}
	cov := 0.0
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
	}
	cov /= float64(len(x))
	return cov / (sx * sy), nil
}

// Quantile returns the q-th quantile of x (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (the R-7/NumPy default). It
// returns an error for empty input or q outside [0,1].
func Quantile(x []float64, q float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile must be in [0,1]")
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of x.
func Median(x []float64) (float64, error) {
	return Quantile(x, 0.5)
}
