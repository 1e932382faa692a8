// The online variants of the system's detectors this example drives, for the
// production setting the paper motivates: a live search service appends one
// count per query per day, and wants bursts flagged as they happen rather
// than by re-scanning history.
//
//   - Stat: Welford running mean/standard deviation.
//   - BurstDetector: the §6.1 moving-average detector in incremental form.
//     The burst mask (MA above mean(MA) + x·std(MA)) is invariant under
//     affine transforms of the input, so the online detector consumes raw
//     counts and still agrees with the batch detector run on standardized
//     data — up to the horizon difference (online thresholds use the
//     history so far, batch uses the whole series; they converge as the
//     stream grows, which the tests quantify).
//   - PeriodTracker: a sliding-window periodogram for on-demand §5 period
//     checks over the most recent W days.

package main

import (
	"errors"
	"math"

	"repro/internal/burst"
	"repro/internal/periods"
)

// Stat maintains running mean and standard deviation (Welford's algorithm).
type Stat struct {
	n    int
	mean float64
	m2   float64
}

// Push adds one observation.
func (s *Stat) Push(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the number of observations.
func (s *Stat) N() int { return s.n }

// Mean returns the running mean (0 before any observation).
func (s *Stat) Mean() float64 { return s.mean }

// Std returns the running population standard deviation.
func (s *Stat) Std() float64 {
	if s.n == 0 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n))
}

// EventKind distinguishes burst boundaries.
type EventKind int

const (
	// BurstOpen fires on the first day the moving average exceeds the
	// cutoff.
	BurstOpen EventKind = iota
	// BurstClose fires on the first day it no longer does; the event
	// carries the compacted triplet of the closed burst.
	BurstClose
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == BurstOpen {
		return "open"
	}
	return "close"
}

// Event is one burst boundary.
type Event struct {
	Kind EventKind
	// Day is the day index the event fired on.
	Day int
	// Burst is the compacted triplet; valid for BurstClose (Avg is in raw
	// input units — use the detector's Mean/Std to z-score if needed).
	Burst burst.Burst
}

// BurstDetector is the incremental §6.1 detector.
type BurstDetector struct {
	window int
	cutoff float64

	ring  []float64 // last `window` values
	pos   int
	count int
	sum   float64 // sum of ring

	maStats Stat // running stats of the moving average
	inStats Stat // running stats of the raw input (for callers' z-scoring)

	inBurst    bool
	burstStart int
	burstSum   float64
	day        int
}

// NewBurstDetector creates an online detector with the given moving-average
// window and cutoff multiplier x (§6.1; burst.DefaultCutoff = 1.5).
func NewBurstDetector(window int, cutoff float64) (*BurstDetector, error) {
	if window < 1 {
		return nil, errors.New("stream: window must be >= 1")
	}
	if cutoff <= 0 {
		return nil, errors.New("stream: cutoff must be positive")
	}
	return &BurstDetector{
		window: window,
		cutoff: cutoff,
		ring:   make([]float64, window),
	}, nil
}

// Push consumes one day's count and returns any burst boundary events.
func (d *BurstDetector) Push(v float64) []Event {
	d.inStats.Push(v)
	// Trailing moving average with warm-up prefix, matching
	// stats.MovingAverage.
	if d.count == d.window {
		d.sum -= d.ring[d.pos]
	} else {
		d.count++
	}
	d.ring[d.pos] = v
	d.pos = (d.pos + 1) % d.window
	d.sum += v
	ma := d.sum / float64(d.count)
	d.maStats.Push(ma)

	threshold := d.maStats.Mean() + d.cutoff*d.maStats.Std()
	bursting := d.maStats.Std() > 0 && ma > threshold

	var events []Event
	switch {
	case bursting && !d.inBurst:
		d.inBurst = true
		d.burstStart = d.day
		d.burstSum = v
		events = append(events, Event{Kind: BurstOpen, Day: d.day})
	case bursting && d.inBurst:
		d.burstSum += v
	case !bursting && d.inBurst:
		d.inBurst = false
		b := burst.Burst{
			Start: d.burstStart,
			End:   d.day - 1,
			Avg:   d.burstSum / float64(d.day-d.burstStart),
		}
		events = append(events, Event{Kind: BurstClose, Day: d.day, Burst: b})
	}
	d.day++
	return events
}

// Flush closes any open burst at the end of the stream and returns its
// event (or nil).
func (d *BurstDetector) Flush() []Event {
	if !d.inBurst {
		return nil
	}
	d.inBurst = false
	b := burst.Burst{
		Start: d.burstStart,
		End:   d.day - 1,
		Avg:   d.burstSum / float64(d.day-d.burstStart),
	}
	return []Event{{Kind: BurstClose, Day: d.day, Burst: b}}
}

// Day returns the number of days consumed.
func (d *BurstDetector) Day() int { return d.day }

// InputStats returns the running statistics of the raw input, for callers
// that want to z-score burst averages.
func (d *BurstDetector) InputStats() *Stat { return &d.inStats }

// PeriodTracker keeps the last `window` values and answers §5 period scans
// over them on demand.
type PeriodTracker struct {
	window int
	buf    []float64
	pos    int
	full   bool
}

// NewPeriodTracker creates a tracker over a sliding window of the given
// length (≥ 4 so the detector has spectrum to work with).
func NewPeriodTracker(window int) (*PeriodTracker, error) {
	if window < 4 {
		return nil, errors.New("stream: period window must be >= 4")
	}
	return &PeriodTracker{window: window, buf: make([]float64, window)}, nil
}

// Push appends one value.
func (p *PeriodTracker) Push(v float64) {
	p.buf[p.pos] = v
	p.pos = (p.pos + 1) % p.window
	if p.pos == 0 {
		p.full = true
	}
}

// Ready reports whether a full window has been observed.
func (p *PeriodTracker) Ready() bool { return p.full }

// Window returns the current window in chronological order.
func (p *PeriodTracker) Window() []float64 {
	out := make([]float64, 0, p.window)
	if !p.full {
		return append(out, p.buf[:p.pos]...)
	}
	out = append(out, p.buf[p.pos:]...)
	return append(out, p.buf[:p.pos]...)
}

// Detect runs the §5 detector over the current window.
func (p *PeriodTracker) Detect(confidence float64) (*periods.Detection, error) {
	if !p.full {
		return nil, errors.New("stream: window not yet full")
	}
	return periods.Detect(p.Window(), confidence)
}
