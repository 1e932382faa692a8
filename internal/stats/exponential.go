package stats

import (
	"errors"
	"math"
)

// Exponential models an exponential distribution with rate λ, used by the
// period detector: under the paper's null model (i.i.d. Gaussian samples) the
// periodogram powers are exponentially distributed, and significant periods
// are the outliers of that distribution (§5.1).
type Exponential struct {
	// Lambda is the rate parameter (inverse of the mean).
	Lambda float64
}

// FitExponential fits an exponential distribution to the sample x by the
// maximum-likelihood estimator λ = 1/mean(x).
func FitExponential(x []float64) (Exponential, error) {
	if len(x) == 0 {
		return Exponential{}, ErrEmpty
	}
	m := Mean(x)
	if m <= 0 {
		return Exponential{}, errors.New("stats: exponential fit requires positive mean")
	}
	return Exponential{Lambda: 1 / m}, nil
}

// PDF returns the probability density λ·e^(−λx), or 0 for x < 0.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Lambda * math.Exp(-e.Lambda*x)
}

// Tail returns the survival probability P(X ≥ x) = e^(−λx).
func (e Exponential) Tail(x float64) float64 {
	if x < 0 {
		return 1
	}
	return math.Exp(-e.Lambda * x)
}

// TailThreshold returns the power threshold Tp such that P(X ≥ Tp) = p,
// i.e. Tp = −ln(p)/λ = −mean·ln(p). This is equation (§5.1) of the paper:
// with p = 1e−4 only one periodogram bin in ten thousand of a non-periodic
// signal exceeds the threshold.
func (e Exponential) TailThreshold(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	return -math.Log(p) / e.Lambda
}

// Histogram is a fixed-width histogram over [Lo, Hi) with len(Counts) bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// N is the total number of observations, including any that fell
	// outside [Lo, Hi) (clamped into the edge bins).
	N int
}

// NewHistogram builds a histogram of x with the given number of bins spanning
// [min(x), max(x)]. Values equal to the maximum land in the last bin.
func NewHistogram(x []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, errors.New("stats: histogram needs >= 1 bin")
	}
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	lo, hi := minOf(x), Max(x)
	if lo == hi {
		hi = lo + 1 // degenerate span: everything in bin 0
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, v := range x {
		h.Add(v)
	}
	return h, nil
}

// Add records one observation, clamping out-of-range values to the edge bins.
func (h *Histogram) Add(v float64) {
	bins := len(h.Counts)
	i := int(float64(bins) * (v - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
	h.N++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Density returns the normalized density of bin i (integrates to ~1).
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.N) * w)
}

// ExponentialFitError measures how far the histogram deviates from the best
// fitting exponential density, as the mean absolute difference between the
// empirical bin density and the fitted PDF at bin centers. Small values mean
// "looks exponential" — the property fig. 12 illustrates for the PSD of
// non-periodic sequences.
func (h *Histogram) ExponentialFitError(dist Exponential) float64 {
	if len(h.Counts) == 0 {
		return 0
	}
	sum := 0.0
	for i := range h.Counts {
		c := h.BinCenter(i)
		sum += math.Abs(h.Density(i) - dist.PDF(c))
	}
	return sum / float64(len(h.Counts))
}
