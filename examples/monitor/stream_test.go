package main

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/burst"
	"repro/internal/querylog"
	"repro/internal/stats"
)

func TestStatMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Stat
	var xs []float64
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64()*3 + 7
		s.Push(v)
		xs = append(xs, v)
	}
	m, sd := stats.MeanStd(xs)
	if math.Abs(s.Mean()-m) > 1e-9 || math.Abs(s.Std()-sd) > 1e-9 {
		t.Errorf("running %v/%v vs batch %v/%v", s.Mean(), s.Std(), m, sd)
	}
	if s.N() != 500 {
		t.Errorf("N = %d", s.N())
	}
	var empty Stat
	if empty.Mean() != 0 || empty.Std() != 0 {
		t.Error("empty Stat not zero")
	}
}

func TestNewBurstDetectorErrors(t *testing.T) {
	if _, err := NewBurstDetector(0, 1.5); err == nil {
		t.Error("expected error for window 0")
	}
	if _, err := NewBurstDetector(7, 0); err == nil {
		t.Error("expected error for cutoff 0")
	}
	if _, err := NewPeriodTracker(3); err == nil {
		t.Error("expected error for tiny period window")
	}
}

func TestOnlineBurstOnPlantedStep(t *testing.T) {
	d, err := NewBurstDetector(7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for day := 0; day < 400; day++ {
		v := 10.0
		if day >= 200 && day < 230 {
			v = 100
		}
		events = append(events, d.Push(v)...)
	}
	events = append(events, d.Flush()...)
	var open, close []Event
	for _, e := range events {
		if e.Kind == BurstOpen {
			open = append(open, e)
		} else {
			close = append(close, e)
		}
	}
	if len(open) != 1 || len(close) != 1 {
		t.Fatalf("open/close = %d/%d: %v", len(open), len(close), events)
	}
	b := close[0].Burst
	if b.Start < 198 || b.Start > 205 || b.End < 226 || b.End > 240 {
		t.Errorf("burst [%d,%d], planted [200,229]", b.Start, b.End)
	}
	if b.Avg < 50 {
		t.Errorf("burst avg %v too low", b.Avg)
	}
}

// Property: events strictly alternate open/close, days are increasing, and
// every closed burst has Start ≤ End < close day.
func TestEventInvariantsProperty(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(wRaw)%30
		d, err := NewBurstDetector(w, 1.5)
		if err != nil {
			return false
		}
		n := 100 + rng.Intn(400)
		var events []Event
		for day := 0; day < n; day++ {
			v := rng.Float64() * 10
			if rng.Intn(50) == 0 {
				v += 200
			}
			events = append(events, d.Push(v)...)
		}
		events = append(events, d.Flush()...)
		wantOpen := true
		lastDay := -1
		for _, e := range events {
			if (e.Kind == BurstOpen) != wantOpen {
				return false
			}
			if e.Day < lastDay {
				return false
			}
			lastDay = e.Day
			if e.Kind == BurstClose {
				if e.Burst.Start > e.Burst.End || e.Burst.End >= e.Day {
					return false
				}
			}
			wantOpen = !wantOpen
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// On a long stream the online detector converges to the batch detector:
// every major batch burst in the second half of the series overlaps an
// online burst.
func TestOnlineConvergesToBatch(t *testing.T) {
	s := querylog.New(2).Exemplar(querylog.Easter)
	batch, err := burst.DetectStandardized(s.Values, burst.LongWindow, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewBurstDetector(burst.LongWindow, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var online []burst.Burst
	for _, v := range s.Values {
		for _, e := range d.Push(v) {
			if e.Kind == BurstClose {
				online = append(online, e.Burst)
			}
		}
	}
	for _, e := range d.Flush() {
		online = append(online, e.Burst)
	}
	if d.Day() != s.Len() {
		t.Errorf("Day = %d", d.Day())
	}
	checked := 0
	for _, bb := range batch.Bursts {
		if bb.Start < s.Len()/2 || bb.Len() < 10 {
			continue // warm-up half and slivers are out of scope
		}
		checked++
		found := false
		for _, ob := range online {
			if burst.Overlap(bb, ob) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("batch burst %v has no online counterpart (online: %v)", bb, online)
		}
	}
	if checked == 0 {
		t.Fatal("no late batch bursts to check against")
	}
	if s := d.InputStats(); s.N() != 1024 || s.Std() <= 0 {
		t.Errorf("input stats: %d/%v", s.N(), s.Std())
	}
}

func TestPeriodTracker(t *testing.T) {
	p, err := NewPeriodTracker(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Detect(1e-4); err == nil {
		t.Error("expected not-ready error")
	}
	for i := 0; i < 300; i++ {
		p.Push(math.Sin(2*math.Pi*float64(i)/16) + 0.01*float64(i%3))
	}
	if !p.Ready() {
		t.Fatal("tracker not ready after 300 pushes")
	}
	w := p.Window()
	if len(w) != 256 {
		t.Fatalf("window length %d", len(w))
	}
	// Chronological order: the last pushed value is last in the window.
	last := math.Sin(2*math.Pi*299/16) + 0.01*float64(299%3)
	if w[255] != last {
		t.Errorf("window tail %v, want %v", w[255], last)
	}
	det, err := p.Detect(1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasPeriodNear(16, 0.5) {
		t.Errorf("sliding-window period not found: %v", det.Top(3))
	}
}

func TestPeriodTrackerPartialWindow(t *testing.T) {
	p, _ := NewPeriodTracker(8)
	p.Push(1)
	p.Push(2)
	w := p.Window()
	if len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Errorf("partial window %v", w)
	}
}

func TestEventKindString(t *testing.T) {
	if BurstOpen.String() == BurstClose.String() {
		t.Error("EventKind String broken")
	}
}

func BenchmarkOnlinePush(b *testing.B) {
	d, err := NewBurstDetector(30, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(float64(i % 37))
	}
}
