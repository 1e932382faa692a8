// Package series defines the time-series type the whole system operates on:
// one value per day for a query word or phrase, e.g. the number of times
// "Thanksgiving" was issued to the search engine on each day (paper §1).
//
// It also provides the exact Euclidean distance (with the early-abandon
// optimization used by the linear-scan baseline in §7.4), z-score
// standardization (§6.3), and reconstruction of a sequence from a partial
// set of Fourier coefficients (used for fig. 5).
package series

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fft"
	"repro/internal/stats"
)

// Series is a daily-count time series for one query term.
type Series struct {
	// ID is the database identifier (assigned by the dataset builder).
	ID int
	// Name is the query word or phrase, e.g. "cinema".
	Name string
	// Start is the calendar date of Values[0].
	Start time.Time
	// Values holds one observation per day.
	Values []float64
}

// ErrLengthMismatch is returned by distance functions on unequal lengths.
var ErrLengthMismatch = errors.New("series: length mismatch")

// Len returns the number of daily observations.
func (s *Series) Len() int { return len(s.Values) }

// DateOf returns the calendar date of observation i.
func (s *Series) DateOf(i int) time.Time {
	return s.Start.AddDate(0, 0, i)
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{ID: s.ID, Name: s.Name, Start: s.Start, Values: v}
}

// Standardized returns a z-scored copy of the series (subtract mean, divide
// by standard deviation), the normalization applied before both similarity
// search (§7) and burst-feature extraction (§6.3).
func (s *Series) Standardized() *Series {
	out := s.Clone()
	stats.StandardizeInPlace(out.Values)
	return out
}

// Spectrum returns the normalized DFT of the series values.
func (s *Series) Spectrum() ([]complex128, error) {
	return fft.ForwardReal(s.Values)
}

// String implements fmt.Stringer.
func (s *Series) String() string {
	return fmt.Sprintf("Series(%d, %q, %d days from %s)",
		s.ID, s.Name, len(s.Values), s.Start.Format("2006-01-02"))
}

// Euclidean returns the Euclidean distance between two equal-length value
// vectors.
func Euclidean(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// EuclideanEarlyAbandon computes the Euclidean distance but gives up as soon
// as the running squared sum exceeds bound² and then returns (+Inf, true).
// The linear-scan baseline and the index refinement phase both use this
// optimization (§7.4: "optimized to perform an early termination of the
// Euclidean distance, when the running sum exceeded the best-so-far match").
//
// The bound is tested once per 16-element block, not per element: the
// running sum of squares never decreases, so a sum that is within the bound
// at the end of a block was within it at every element of the block. The
// sum itself keeps one accumulator and the element order of Euclidean, so
// dist and abandoned are bit-identical to testing after every element —
// including NaN inputs, whose block is replayed element by element.
func EuclideanEarlyAbandon(a, b []float64, bound float64) (dist float64, abandoned bool, err error) {
	if len(a) != len(b) {
		return 0, false, ErrLengthMismatch
	}
	limit := bound * bound
	sum := 0.0
	i := 0
	for ; i+16 <= len(a); i += 16 {
		// Written out rather than looped: the differences and squares are
		// independent of the sum, so they issue ahead of the one chain of
		// additions that bounds the kernel. A rolled 16-element inner loop
		// measures slower than the per-element test it replaces.
		x, y := (*[16]float64)(a[i:]), (*[16]float64)(b[i:])
		d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
		d4, d5, d6, d7 := x[4]-y[4], x[5]-y[5], x[6]-y[6], x[7]-y[7]
		d8, d9, d10, d11 := x[8]-y[8], x[9]-y[9], x[10]-y[10], x[11]-y[11]
		d12, d13, d14, d15 := x[12]-y[12], x[13]-y[13], x[14]-y[14], x[15]-y[15]
		blockSum := sum
		blockSum += d0 * d0
		blockSum += d1 * d1
		blockSum += d2 * d2
		blockSum += d3 * d3
		blockSum += d4 * d4
		blockSum += d5 * d5
		blockSum += d6 * d6
		blockSum += d7 * d7
		blockSum += d8 * d8
		blockSum += d9 * d9
		blockSum += d10 * d10
		blockSum += d11 * d11
		blockSum += d12 * d12
		blockSum += d13 * d13
		blockSum += d14 * d14
		blockSum += d15 * d15
		// Not "blockSum > limit": a NaN sum compares false both ways, and
		// whether an element before the NaN had already crossed the bound
		// is only decidable element by element.
		if !(blockSum <= limit) {
			break
		}
		sum = blockSum
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
		if sum > limit {
			return math.Inf(1), true, nil
		}
	}
	return math.Sqrt(sum), false, nil
}
