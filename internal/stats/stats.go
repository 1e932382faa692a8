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
	"slices"
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

// MeanStd returns both the mean and population standard deviation of x in a
// single pass (Welford's algorithm), which is cheaper and more numerically
// stable than a two-pass mean and variance.
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
	ZScore(x, x, m, s)
	return m, s
}

// ZScore writes (x[i] − mean) / std to dst, which has x's length and may be
// x: the z-scores StandardizeInPlace computes, from moments already known. A
// zero std writes zeros.
func ZScore(dst, x []float64, mean, std float64) {
	dst = dst[:len(x)]
	if std == 0 {
		clear(dst)
		return
	}
	for i, v := range x {
		dst[i] = (v - mean) / std
	}
}

// MovingAverage returns the trailing moving average of x with window w.
// Element i of the result averages x[max(0,i-w+1) .. i]; the warm-up prefix
// therefore averages over fewer than w points instead of being dropped, so the
// output has the same length as the input. w must be >= 1. The result is
// written over dst's backing array when it has the room (dst may be nil).
func MovingAverage(dst, x []float64, w int) ([]float64, error) {
	if w < 1 {
		return nil, errors.New("stats: moving-average window must be >= 1")
	}
	out := slices.Grow(dst[:0], len(x))[:len(x)]
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

// minOf returns the minimum of x. It returns +Inf for empty input.
func minOf(x []float64) float64 {
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
