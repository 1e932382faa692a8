// Package burst implements the paper's burst machinery (§6):
//
//  1. Detection — compute a moving average MA_w of the (standardized)
//     sequence and flag every day where MA_w exceeds
//     mean(MA_w) + x·std(MA_w); the paper uses w = 7 for short-term and
//     w = 30 for long-term bursts and x between 1.5 and 2.
//  2. Compaction — collapse each maximal run of flagged days into the
//     triplet [startDate, endDate, average value] so burst features fit in
//     a relational table (§6.2).
//  3. Similarity — the BSim measure of §6.3, the sum over burst pairs of
//     intersect(Bx,By) · similarity(Bx,By), used for 'query-by-burst'.
package burst

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/stats"
)

// Window presets from the paper.
const (
	// ShortWindow is the 7-day moving average (short-term bursts).
	ShortWindow = 7
	// LongWindow is the 30-day moving average (long-term bursts).
	LongWindow = 30
	// DefaultCutoff is the multiplier x on the moving average's standard
	// deviation ("typical values for the cutoff point are 1.5-2").
	DefaultCutoff = 1.5
)

// Burst is one compacted burst region: the triplet stored in the DBMS.
type Burst struct {
	// Start is the first day index of the burst (inclusive).
	Start int
	// End is the last day index of the burst (inclusive).
	End int
	// Avg is the average (standardized) value over [Start, End].
	Avg float64
}

// Len returns the burst length in days: endDate − startDate + 1.
func (b Burst) Len() int { return b.End - b.Start + 1 }

// String implements fmt.Stringer.
func (b Burst) String() string {
	return fmt.Sprintf("[%d,%d avg=%.2f]", b.Start, b.End, b.Avg)
}

// Detection is the result of a burst scan.
type Detection struct {
	// Bursts are the compacted burst regions in time order.
	Bursts []Burst
	// MA is the moving average the detector thresholded.
	MA []float64
	// Cutoff is the threshold mean(MA) + x·std(MA).
	Cutoff float64
	// Mask[i] reports whether day i was flagged as bursting.
	Mask []bool
}

// Options configures burst detection.
type Options struct {
	// Window is the moving-average length w (required, ≥ 1).
	Window int
	// Cutoff is the std multiplier x (default DefaultCutoff).
	Cutoff float64
	// Standardize z-scores the input before detection, the paper's
	// normalization "to compensate for the variation of counts for
	// different queries" (default true via DetectStandardized; Detect
	// operates on the values as given).
	Standardize bool
}

// Detect runs the §6.1 algorithm on values with the given options.
func Detect(values []float64, opts Options) (*Detection, error) {
	det := new(Detection)
	if err := DetectInto(det, values, opts); err != nil {
		return nil, err
	}
	return det, nil
}

// DetectInto is Detect into caller-owned storage: det is overwritten with
// the detection of values, reusing its moving-average, mask and burst
// slices, so a caller that scans series after series allocates nothing once
// they have grown. What it read of det before is no longer valid.
func DetectInto(det *Detection, values []float64, opts Options) error {
	if opts.Window < 1 {
		return errors.New("burst: window must be >= 1")
	}
	if opts.Window > len(values) {
		return errors.New("burst: window longer than series")
	}
	if opts.Cutoff == 0 {
		opts.Cutoff = DefaultCutoff
	}
	if opts.Cutoff < 0 {
		return errors.New("burst: cutoff must be positive")
	}
	x := values
	if opts.Standardize {
		x = stats.Standardize(values)
	}
	ma, err := stats.MovingAverage(det.MA, x, opts.Window)
	if err != nil {
		return err
	}
	mean, std := stats.MeanStd(ma)
	*det = Detection{
		Bursts: det.Bursts[:0],
		MA:     ma,
		Cutoff: mean + opts.Cutoff*std,
		Mask:   slices.Grow(det.Mask[:0], len(x))[:len(x)],
	}
	if std == 0 {
		// Flat moving average: nothing bursts.
		clear(det.Mask)
		return nil
	}
	for i, v := range ma {
		det.Mask[i] = v > det.Cutoff
	}
	det.Bursts = compact(det.Bursts, x, det.Mask)
	return nil
}

// DetectStandardized is Detect with z-scoring enabled — the configuration
// the paper's query-by-burst database uses.
func DetectStandardized(values []float64, window int, cutoff float64) (*Detection, error) {
	return Detect(values, Options{Window: window, Cutoff: cutoff, Standardize: true})
}

// compact appends to out the maximal flagged runs as triplets, averaging the
// underlying (possibly standardized) values over the run (§6.2).
func compact(out []Burst, values []float64, mask []bool) []Burst {
	i := 0
	for i < len(mask) {
		if !mask[i] {
			i++
			continue
		}
		j := i
		sum := 0.0
		for j < len(mask) && mask[j] {
			sum += values[j]
			j++
		}
		out = append(out, Burst{Start: i, End: j - 1, Avg: sum / float64(j-i)})
		i = j
	}
	return out
}

// Overlap returns the number of days the two bursts share (0 when disjoint),
// the `overlap` function of fig. 17.
func Overlap(a, b Burst) int {
	lo := a.Start
	if b.Start > lo {
		lo = b.Start
	}
	hi := a.End
	if b.End < hi {
		hi = b.End
	}
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// Intersect returns the degree of overlap between two bursts (§6.3):
// ½·(overlap/|Bx| + overlap/|By|), in [0,1] with 1 meaning identical spans.
func Intersect(a, b Burst) float64 {
	ov := float64(Overlap(a, b))
	if ov == 0 {
		return 0
	}
	return 0.5 * (ov/float64(a.Len()) + ov/float64(b.Len()))
}

// Similarity captures how close the average burst values are (§6.3):
// 1 / (1 + |avg(Bx) − avg(By)|), in (0,1].
func Similarity(a, b Burst) float64 {
	d := a.Avg - b.Avg
	if d < 0 {
		d = -d
	}
	return 1 / (1 + d)
}

// BSim is the paper's burst-pattern similarity between two burst feature
// sets: Σ_i Σ_j intersect(Bx_i, By_j) · similarity(Bx_i, By_j). Larger is
// more similar; non-overlapping burst sets score 0.
func BSim(x, y []Burst) float64 {
	total := 0.0
	for _, a := range x {
		for _, b := range y {
			if Overlap(a, b) == 0 {
				continue
			}
			total += Intersect(a, b) * Similarity(a, b)
		}
	}
	return total
}
