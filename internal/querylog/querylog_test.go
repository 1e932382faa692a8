package querylog

import (
	"math"
	"testing"
	"time"

	"repro/internal/fft"
	"repro/internal/series"
	"repro/internal/stats"
)

// dayIndex is the observation index of date d in s.
func dayIndex(s *series.Series, d time.Time) int {
	return int(d.Sub(s.Start).Hours() / 24)
}

func TestGeneratorDeterminism(t *testing.T) {
	a := New(42).Exemplar(Cinema)
	b := New(42).Exemplar(Cinema)
	if len(a.Values) != len(b.Values) {
		t.Fatal("length mismatch")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("same seed produced different values at %d", i)
		}
	}
	c := New(43).Exemplar(Cinema)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestDefaults(t *testing.T) {
	s := New(1).Exemplar(Cinema)
	if s.Len() != DefaultLength {
		t.Errorf("length = %d, want %d", s.Len(), DefaultLength)
	}
	if !s.Start.Equal(DefaultStart) {
		t.Errorf("start = %v", s.Start)
	}
}

func TestValuesNonNegative(t *testing.T) {
	g := New(7)
	for _, s := range append(g.Exemplars(), g.Dataset(90)...) {
		for i, v := range s.Values {
			if v < 0 {
				t.Fatalf("%s[%d] = %v < 0", s.Name, i, v)
			}
		}
	}
}

// dominantPeriod returns the period of the strongest non-DC periodogram bin
// of the standardized series.
func dominantPeriod(t *testing.T, values []float64) float64 {
	t.Helper()
	z := stats.Standardize(values)
	p, err := fft.PeriodogramReal(z)
	if err != nil {
		t.Fatal(err)
	}
	best, bestK := 0.0, 0
	for k := 1; k < len(p); k++ {
		if p[k] > best {
			best, bestK = p[k], k
		}
	}
	return fft.PeriodOf(bestK, len(values))
}

func TestCinemaIsWeekly(t *testing.T) {
	s := New(3).Exemplar(Cinema)
	period := dominantPeriod(t, s.Values)
	if math.Abs(period-7) > 0.2 {
		t.Errorf("cinema dominant period = %v, want ~7 (fig. 13)", period)
	}
}

func TestNordstromIsWeekly(t *testing.T) {
	s := New(4).Exemplar(Nordstrom)
	period := dominantPeriod(t, s.Values)
	if math.Abs(period-7) > 0.2 {
		t.Errorf("nordstrom dominant period = %v, want ~7 (fig. 13)", period)
	}
}

func TestFullMoonIsLunar(t *testing.T) {
	s := New(5).Exemplar(FullMoon)
	period := dominantPeriod(t, s.Values)
	if math.Abs(period-29.53) > 2 {
		t.Errorf("full-moon dominant period = %v, want ~29.5 (fig. 13)", period)
	}
}

func TestElvisSpikesOnAug16(t *testing.T) {
	s := New(6).Exemplar(Elvis)
	for _, year := range []int{2000, 2001, 2002} {
		d := time.Date(year, time.August, 16, 0, 0, 0, 0, time.UTC)
		idx := dayIndex(s, d)
		if idx < 0 || idx >= s.Len() {
			continue
		}
		m, _ := stats.MeanStd(s.Values)
		if s.Values[idx] < m+80 {
			t.Errorf("elvis on %v = %v, want clear spike above mean %v", d, s.Values[idx], m)
		}
	}
}

func TestEasterRampPeaksNearEaster(t *testing.T) {
	s := New(8).Exemplar(Easter)
	for _, year := range []int{2000, 2001, 2002} {
		easter := easterSunday(year)
		idx := dayIndex(s, easter)
		if idx < 3 || idx+10 >= s.Len() {
			continue
		}
		// Demand just before Easter must dwarf demand 10 days after.
		before := stats.Mean(s.Values[idx-3 : idx])
		after := stats.Mean(s.Values[idx+7 : idx+10])
		if before < after+40 {
			t.Errorf("year %d: demand before easter %v not >> after %v", year, before, after)
		}
	}
}

func TestHalloweenBurstInOctober(t *testing.T) {
	s := New(9).Exemplar(Halloween)
	oct := dayIndex(s, time.Date(2001, time.October, 28, 0, 0, 0, 0, time.UTC))
	jun := dayIndex(s, time.Date(2001, time.June, 15, 0, 0, 0, 0, time.UTC))
	if s.Values[oct] < s.Values[jun]+60 {
		t.Errorf("halloween Oct demand %v should dwarf June %v", s.Values[oct], s.Values[jun])
	}
}

func TestWorldTradeCenterOneShot(t *testing.T) {
	s := New(10).Exemplar(WorldTradeCenter)
	ev := dayIndex(s, time.Date(2001, time.September, 11, 0, 0, 0, 0, time.UTC))
	if ev <= 0 {
		t.Fatal("event index out of range")
	}
	beforeMean := stats.Mean(s.Values[:ev-1])
	if s.Values[ev] < beforeMean+150 {
		t.Errorf("9/11 demand %v, want burst far above prior mean %v", s.Values[ev], beforeMean)
	}
	// Demand in 2000 should show no burst at all.
	if m := stats.Max(s.Values[:300]); m > beforeMean+100 {
		t.Errorf("pre-event max %v suspiciously high", m)
	}
}

func TestFlowersHasTwoBursts(t *testing.T) {
	s := New(11).Exemplar(Flowers)
	feb := dayIndex(s, time.Date(2001, time.February, 14, 0, 0, 0, 0, time.UTC))
	may := dayIndex(s, time.Date(2001, time.May, 12, 0, 0, 0, 0, time.UTC))
	aug := dayIndex(s, time.Date(2001, time.August, 15, 0, 0, 0, 0, time.UTC))
	if s.Values[feb] < s.Values[aug]+40 || s.Values[may] < s.Values[aug]+30 {
		t.Errorf("flowers Feb/May/Aug = %v/%v/%v, want two bursts (fig. 16)",
			s.Values[feb], s.Values[may], s.Values[aug])
	}
}

func TestEasterSundayComputus(t *testing.T) {
	// Known Easter dates.
	cases := map[int]string{
		2000: "2000-04-23",
		2001: "2001-04-15",
		2002: "2002-03-31",
		2004: "2004-04-11",
		2024: "2024-03-31",
	}
	for year, want := range cases {
		if got := easterSunday(year).Format("2006-01-02"); got != want {
			t.Errorf("Easter %d = %s, want %s", year, got, want)
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	g := New(12)
	ds := g.Dataset(45)
	if len(ds) != 45 {
		t.Fatalf("dataset size %d", len(ds))
	}
	seen := map[string]bool{}
	ids := map[int]bool{}
	for _, s := range ds {
		if s.Len() != DefaultLength {
			t.Fatalf("series %s length %d", s.Name, s.Len())
		}
		if ids[s.ID] {
			t.Fatalf("duplicate ID %d", s.ID)
		}
		ids[s.ID] = true
		seen[s.Name[:4]] = true
	}
	if len(seen) < 5 {
		t.Errorf("expected several archetype kinds, got %d prefixes", len(seen))
	}
}

func TestQueriesAreFreshDraws(t *testing.T) {
	g := New(13)
	ds := g.Dataset(9)
	qs := g.Queries(9)
	for _, q := range qs {
		for _, s := range ds {
			same := true
			for i := range q.Values {
				if q.Values[i] != s.Values[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("query %s duplicates dataset series %s", q.Name, s.Name)
			}
		}
	}
}

func TestStandardizeAll(t *testing.T) {
	g := New(14)
	ds := g.Dataset(9)
	std := StandardizeAll(ds)
	for i, s := range std {
		m, sd := stats.MeanStd(s.Values)
		if math.Abs(m) > 1e-9 || math.Abs(sd-1) > 1e-9 {
			t.Errorf("series %d mean/std = %v/%v", i, m, sd)
		}
		if ds[i].Values[0] == s.Values[0] && ds[i].Values[1] == s.Values[1] {
			t.Errorf("series %d: original looks mutated/shared", i)
		}
	}
}

func TestArchetypeKindString(t *testing.T) {
	for k := archetypeKind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if archetypeKind(99).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

func TestUnknownExemplarFallsBackToNoise(t *testing.T) {
	s := New(15).Exemplar("definitely-not-a-known-query")
	if s.Len() != DefaultLength {
		t.Fatal("fallback series has wrong length")
	}
	_, sd := stats.MeanStd(s.Values)
	if sd == 0 {
		t.Error("fallback noise series is flat")
	}
}

func BenchmarkDataset1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(int64(i))
		if got := g.Dataset(64); len(got) != 64 {
			b.Fatal("bad dataset")
		}
	}
}
