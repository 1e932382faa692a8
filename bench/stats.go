package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of an ascending slice
// (p in (0,1]); 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.99 x 1000 at rank 990 although 0.99 has no exact
	// binary representation.
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles the benchmark may report,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9}

// tailPercentile applies the percentile rule: a tail percentile is reported
// only where at least ten samples lie beyond it, so with n samples the
// highest reportable one of p99.9, p99, p90 is chosen (p50 when even p90 has
// fewer than ten samples behind it). It never reports above limit.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(n) - 1e-9))
		if p <= limit && n-rank >= 10 {
			return p
		}
	}
	return 0.5
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median is the middle value (the mean of the middle two for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	s := sortedCopy(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartileSpread is the benchmark contract's steadiness measure: the
// distance between the first and third quartile (exclusive method, as
// Python's statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(v []float64) (med, spread float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med = q(2)
	if med == 0 {
		return 0, 0
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}

// timing is one completed operation: when it was sent and how long it took
// (from its due time, in an open loop).
type timing struct{ at, lat time.Duration }

// Passes of a measured window: it is cut into as many equal passes as keep
// minPassSamples operations each (so each pass supports its own p99), at
// most maxPasses, and every statistic is the median over passes. One stall
// of the machine — they reach hundreds of milliseconds in a small sandbox —
// then spoils one pass, not the run's tail percentile.
const (
	minPassSamples = 1000
	maxPasses      = 6
)

// summary is the per-pass-median view of a measured window.
type summary struct {
	p50, tail float64 // ms
	tailP     float64 // which percentile tail is (0.99 when a pass has >= 1000 samples)
	rate      float64 // operations per second
	n, passes int
}

// summarize cuts the timings, ordered by send time, into passes and takes
// the median over passes of each pass's p50, tail percentile and rate.
func summarize(ts []timing) summary {
	sort.Slice(ts, func(i, j int) bool { return ts[i].at < ts[j].at })
	n := len(ts)
	k := max(1, min(maxPasses, n/minPassSamples))
	out := summary{n: n, passes: k, tailP: tailPercentile(n/k, 0.99)}
	if n == 0 {
		return out
	}
	var p50s, tails, rates []float64
	for i := 0; i < k; i++ {
		pass := ts[i*n/k : (i+1)*n/k]
		lat := make([]float64, len(pass))
		end := time.Duration(0)
		for j, t := range pass {
			lat[j] = ms(t.lat)
			end = max(end, t.at+t.lat)
		}
		if i < k-1 {
			end = ts[(i+1)*n/k].at // a pass lasts until the next one's first send
		}
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 0.5))
		tails = append(tails, percentile(lat, out.tailP))
		rates = append(rates, float64(len(pass))/(end-pass[0].at).Seconds())
	}
	out.p50, out.tail, out.rate = median(p50s), median(tails), median(rates)
	return out
}
