// Package querylog generates synthetic search-engine query logs that stand in
// for the MSN query database used in the paper (see DESIGN.md §2 for the
// substitution rationale). Each generated series is the daily demand curve of
// one query term over the 2000–2002 window, length 1024 by default — the same
// scale as the paper's experiments ("all sequences had length of 1024 points,
// capturing almost 3 years of query logs").
//
// The generator reproduces the shape classes the paper's figures rely on:
//
//   - strong weekly periodicity with a weekend double-peak ("cinema",
//     "nordstrom" — fig. 1, 13),
//   - lunar-month periodicity ("full moon" — fig. 13, 16),
//   - seasonal accumulate-then-drop bursts ("easter" — fig. 2, 15),
//   - box-shaped seasonal bursts ("halloween", "christmas" — fig. 14),
//   - multi-burst years ("flowers": Valentine's + Mother's Day — fig. 16),
//   - anniversary spikes ("elvis", Aug 16 — fig. 3),
//   - one-shot news events ("dudley moore", "world trade center" — fig. 13, 19),
//   - aperiodic random walks and white noise (the fig. 12 null model).
//
// Everything is driven by a seeded PRNG, so datasets are reproducible.
package querylog

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/series"
)

// DefaultStart is January 1, 2000 — the first day of the paper's log window.
var DefaultStart = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// DefaultLength is the paper's sequence length (≈ 3 years of days).
const DefaultLength = 1024

// Generator builds synthetic query-demand series.
type Generator struct {
	Start  time.Time
	Length int
	rng    *rand.Rand
	nextID int
}

// NewGenerator returns a generator producing series of the given length
// starting at start, driven by the given seed.
func NewGenerator(start time.Time, length int, seed int64) *Generator {
	return &Generator{Start: start, Length: length, rng: rand.New(rand.NewSource(seed))}
}

// New returns a generator with the paper's defaults (2000-01-01, 1024 days).
func New(seed int64) *Generator {
	return NewGenerator(DefaultStart, DefaultLength, seed)
}

// component contributes demand for a single day.
type component func(day int, date time.Time) float64

// build assembles a series from a base level, components and noise.
func (g *Generator) build(name string, base, noise float64, comps ...component) *series.Series {
	v := make([]float64, g.Length)
	for i := range v {
		date := g.Start.AddDate(0, 0, i)
		x := base
		for _, c := range comps {
			x += c(i, date)
		}
		x += g.rng.NormFloat64() * noise
		if x < 0 {
			x = 0
		}
		v[i] = x
	}
	s := &series.Series{ID: g.nextID, Name: name, Start: g.Start, Values: v}
	g.nextID++
	return s
}

// weekendPattern returns a weekly component: a multiplier profile over the
// seven weekdays scaled by amp. The default profile peaks Friday/Saturday
// (the moviegoing pattern of fig. 1); a custom profile may be supplied.
func weekendPattern(amp float64, profile *[7]float64) component {
	p := [7]float64{0.1, 0, 0, 0.05, 0.2, 1.0, 0.9} // Sun..Sat
	if profile != nil {
		p = *profile
	}
	return func(day int, date time.Time) float64 {
		return amp * p[int(date.Weekday())]
	}
}

// lunarPattern returns a peaked wave with the synodic-month period
// (29.53 days): demand concentrates in the few days around each full moon
// (raising the cosine bump to the 4th power narrows the peak, which also
// produces the 14.56-day harmonic visible in the paper's fig. 13).
func lunarPattern(amp float64) component {
	const synodic = 29.53
	return func(day int, date time.Time) float64 {
		c := 0.5 * (1 + math.Cos(2*math.Pi*float64(day)/synodic))
		return amp * c * c * c * c
	}
}

// seasonalRampBurst returns the accumulate-then-drop shape of the "easter"
// curve (fig. 2): demand ramps up over riseDays before the event each year
// and collapses within dropDays after it. eventDay gives the event's date in
// each year.
func seasonalRampBurst(amp float64, riseDays, dropDays int, eventDay func(year int) time.Time) component {
	return func(day int, date time.Time) float64 {
		for _, year := range []int{date.Year(), date.Year() + 1} {
			ev := eventDay(year)
			delta := int(ev.Sub(date).Hours() / 24)
			switch {
			case delta >= 0 && delta <= riseDays:
				return amp * (1 - float64(delta)/float64(riseDays))
			case delta < 0 && -delta <= dropDays:
				return amp * (1 + float64(delta)/float64(dropDays+1))
			}
		}
		return 0
	}
}

// seasonalBoxBurst returns a Gaussian bump of the given width (std in days)
// centered on the same month/day every year — the "halloween" shape (fig. 14).
func seasonalBoxBurst(amp float64, month time.Month, dayOfMonth int, width float64) component {
	return func(day int, date time.Time) float64 {
		center := time.Date(date.Year(), month, dayOfMonth, 0, 0, 0, 0, time.UTC)
		d := date.Sub(center).Hours() / 24
		// Also consider the neighbouring years' events so the bump's tail
		// crosses New Year correctly.
		best := math.Abs(d)
		for _, y := range []int{date.Year() - 1, date.Year() + 1} {
			c := time.Date(y, month, dayOfMonth, 0, 0, 0, 0, time.UTC)
			if dd := math.Abs(date.Sub(c).Hours() / 24); dd < best {
				best = dd
			}
		}
		return amp * math.Exp(-best*best/(2*width*width))
	}
}

// anniversarySpike returns a 1–2 day spike on the same date each year — the
// "elvis" Aug 16 shape (fig. 3).
func anniversarySpike(amp float64, month time.Month, dayOfMonth int) component {
	return func(day int, date time.Time) float64 {
		if date.Month() == month {
			d := date.Day() - dayOfMonth
			if d == 0 {
				return amp
			}
			if d == 1 || d == -1 {
				return amp * 0.35
			}
		}
		return 0
	}
}

// oneShotEvent returns a single news burst: a sharp rise at the event day
// followed by an exponential decay with the given half-life.
func oneShotEvent(amp float64, eventDay int, halfLife float64) component {
	return func(day int, date time.Time) float64 {
		if day < eventDay {
			return 0
		}
		return amp * math.Exp(-float64(day-eventDay)*math.Ln2/halfLife)
	}
}

// randomWalk produces an aperiodic wandering level (fig. 12 null-model data).
func (g *Generator) randomWalk(scale float64) component {
	walk := make([]float64, g.Length)
	level := 0.0
	for i := range walk {
		level += g.rng.NormFloat64() * scale
		walk[i] = level
	}
	return func(day int, date time.Time) float64 {
		if day < len(walk) {
			return walk[day]
		}
		return 0
	}
}

// easterSunday returns the date of Easter Sunday for the given year
// (Anonymous Gregorian computus), used to place the "easter" ramp bursts on
// the true, moving holiday like the real log data would.
func easterSunday(year int) time.Time {
	a := year % 19
	b := year / 100
	c := year % 100
	d := b / 4
	e := b % 4
	f := (b + 8) / 25
	gg := (b - f + 1) / 3
	h := (19*a + b - d - gg + 15) % 30
	i := c / 4
	k := c % 4
	l := (32 + 2*e + 2*i - h - k) % 7
	m := (a + 11*h + 22*l) / 451
	month := (h + l - 7*m + 114) / 31
	day := (h+l-7*m+114)%31 + 1
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
}
