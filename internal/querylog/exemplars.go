package querylog

import (
	"time"

	"repro/internal/series"
)

// Exemplar names match the queries shown in the paper's figures.
const (
	Cinema           = "cinema"
	Nordstrom        = "nordstrom"
	FullMoon         = "full moon"
	Easter           = "easter"
	Halloween        = "halloween"
	Christmas        = "christmas"
	Flowers          = "flowers"
	Elvis            = "elvis"
	DudleyMoore      = "dudley moore"
	WorldTradeCenter = "world trade center"
	Hurricane        = "hurricane"
	Bank             = "bank"
	President        = "president"
	Athens2004       = "athens 2004"
	Thanksgiving     = "thanksgiving"
	ValentinesDay    = "valentines day"
	MothersDay       = "mothers day"
	RandomWalkName   = "randomwalk"
	WhiteNoiseName   = "whitenoise"
)

// Exemplar generates the named query's demand curve. Names are the exemplar
// constants above; unknown names yield a white-noise series so callers can
// probe with arbitrary terms.
func (g *Generator) Exemplar(name string) *series.Series {
	switch name {
	case Cinema:
		// Fig. 1: 52 weekend peaks per year; fig. 13 periods 7 and 3.5.
		return g.build(name, 100, 6, weekendPattern(80, nil))
	case Nordstrom:
		// Fig. 13: retail weekly pattern, slightly different weekday profile.
		p := [7]float64{0.7, 0.2, 0.15, 0.2, 0.3, 0.8, 1.0}
		return g.build(name, 60, 4, weekendPattern(45, &p))
	case FullMoon:
		// Fig. 13/16: lunar 29.53-day periodicity, bursts at each full moon.
		return g.build(name, 40, 3, lunarPattern(50))
	case Easter:
		// Fig. 2/15: accumulate toward (moving) Easter, sharp drop after.
		return g.build(name, 20, 3,
			seasonalRampBurst(120, 70, 4, easterSunday))
	case Halloween:
		// Fig. 14: burst through October, gone by mid November.
		return g.build(name, 25, 4, seasonalBoxBurst(130, time.October, 28, 18))
	case Christmas:
		// Fig. 19: December accumulation.
		return g.build(name, 30, 4,
			seasonalRampBurst(150, 50, 6, func(year int) time.Time {
				return time.Date(year, time.December, 25, 0, 0, 0, 0, time.UTC)
			}))
	case Flowers:
		// Fig. 16: two long-term bursts — Valentine's Day and Mother's Day.
		return g.build(name, 50, 5,
			seasonalBoxBurst(90, time.February, 14, 7),
			seasonalBoxBurst(70, time.May, 12, 7))
	case Elvis:
		// Fig. 3: spike every Aug 16 (death anniversary).
		return g.build(name, 45, 5, anniversarySpike(160, time.August, 16))
	case DudleyMoore:
		// Fig. 13: no periodicity; one sharp news spike when the actor died
		// (Mar 27, 2002 = day 816 from 2000-01-01). The spike is kept
		// delta-like — its energy spreads flat across the spectrum, so the
		// period detector must not raise false alarms.
		return g.build(name, 15, 6, oneShotEvent(100, g.dayOf(2002, time.March, 27), 1.2))
	case WorldTradeCenter:
		// Fig. 19: massive one-shot burst on Sep 11, 2001 (day 619).
		return g.build(name, 10, 3, oneShotEvent(300, g.dayOf(2001, time.September, 11), 12))
	case Hurricane:
		// Fig. 19: hurricane-season bursts (Aug–Sep each year).
		return g.build(name, 20, 4, seasonalBoxBurst(90, time.September, 5, 22))
	case Bank, President:
		// Fig. 5: mildly periodic weekday-driven business queries.
		p := [7]float64{0, 1, 0.95, 0.9, 0.9, 0.8, 0.1}
		return g.build(name, 70, 8, weekendPattern(35, &p), g.randomWalk(1.5))
	case Athens2004:
		// Fig. 5: slow pre-event buildup (Olympics) plus strong weekly
		// texture — periodic enough that the best coefficients beat the
		// first ones at equal memory, as the paper's panel shows.
		return g.build(name, 5, 2,
			func(day int, date time.Time) float64 { return float64(day) * 0.02 },
			weekendPattern(25, nil))
	case Thanksgiving:
		return g.build(name, 15, 3, seasonalBoxBurst(140, time.November, 25, 10))
	case ValentinesDay:
		return g.build(name, 10, 2, seasonalBoxBurst(120, time.February, 14, 6))
	case MothersDay:
		return g.build(name, 10, 2, seasonalBoxBurst(100, time.May, 12, 6))
	case RandomWalkName:
		return g.build(name, 50, 2, g.randomWalk(3))
	case WhiteNoiseName:
		return g.build(name, 50, 12)
	default:
		return g.build(name, 50, 12)
	}
}

// dayOf maps a calendar date to a day index relative to the generator start.
func (g *Generator) dayOf(year int, month time.Month, day int) int {
	return int(time.Date(year, month, day, 0, 0, 0, 0, time.UTC).Sub(g.Start).Hours() / 24)
}

// ExemplarNames lists every named exemplar in a stable order.
func ExemplarNames() []string {
	return []string{
		Cinema, Nordstrom, FullMoon, Easter, Halloween, Christmas, Flowers,
		Elvis, DudleyMoore, WorldTradeCenter, Hurricane, Bank, President,
		Athens2004, Thanksgiving, ValentinesDay, MothersDay,
		RandomWalkName, WhiteNoiseName,
	}
}

// Exemplars generates one series per named exemplar.
func (g *Generator) Exemplars() []*series.Series {
	names := ExemplarNames()
	out := make([]*series.Series, 0, len(names))
	for _, n := range names {
		out = append(out, g.Exemplar(n))
	}
	return out
}
