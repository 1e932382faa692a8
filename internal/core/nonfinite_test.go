package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/spectral"
)

// poisoned returns a copy of s with value v at point at.
func poisoned(s *series.Series, at int, v float64) *series.Series {
	c := *s
	c.Values = append([]float64(nil), s.Values...)
	c.Values[at] = v
	return &c
}

// A series holding a NaN or an infinity is refused with ErrNonFinite — by
// the build (the first bad series by input position, a wrong-length one
// included) and by Add before anything is derived or stored — and the engine
// goes on answering as before. (A query curve like that is refused by the
// one resolver every engine shares: shard.TestNonFiniteInputIsRefused.)
func TestNonFiniteInputIsRefused(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 53)
	corpus := g.Dataset(deriveBlock + 8)
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		data := append([]*series.Series(nil), corpus...)
		data[deriveBlock+2] = poisoned(corpus[deriveBlock+2], 7, v)
		data[deriveBlock+5] = &series.Series{Name: "short", Values: make([]float64, 5)}
		_, err := NewEngine(data, Config{})
		if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), data[deriveBlock+2].Name) {
			t.Errorf("build with %s at %d: error %v, want that series' ErrNonFinite", name, deriveBlock+2, err)
		}
		data[deriveBlock+1] = data[deriveBlock+5]
		if _, err := NewEngine(data, Config{}); !errors.Is(err, spectral.ErrMismatch) {
			t.Errorf("build with a short series before the %s one: error %v, want ErrMismatch", name, err)
		}
	}

	e, err := NewEngine(corpus, Config{DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fresh := g.Queries(1)[0]
	before, _, err := similarToID(e, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := poisoned(fresh, 63, v)
		if _, err := e.Add(bad); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
			t.Errorf("Add with %v: error %v, want ErrNonFinite naming %q", v, err, bad.Name)
		}
		if _, err := e.prepareAdd(bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("prepareAdd with %v: error %v, want ErrNonFinite", v, err)
		}
	}
	if e.Len() != len(corpus) || e.Store().Len() != len(corpus) {
		t.Errorf("refused Adds left %d series and %d rows, want %d of each", e.Len(), e.Store().Len(), len(corpus))
	}
	after, _, err := similarToID(e, 3, 5)
	if err != nil || fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("answer after the refusals: %v (%v), want %v", after, err, before)
	}
}

// overflowing returns a copy of s whose points alternate +v, −v: every one is
// finite, yet at v = 1e200 the standard deviation is +Inf and at v = 1e308 the
// mean is NaN.
func overflowing(s *series.Series, v float64) *series.Series {
	c := *s
	c.Values = make([]float64, len(s.Values))
	for i := range c.Values {
		c.Values[i] = v
		if i%2 == 1 {
			c.Values[i] = -v
		}
	}
	return &c
}

// A finite series whose z-scores overflow is refused with ErrNonFinite just as
// a NaN is — by the build and by Add (and a query curve like that by the
// resolver: shard.TestOverflowingInputIsRefused) — instead of being stored as a
// flat or NaN row, after which every similar query answered no neighbours. A
// curve of ordinary magnitude z-scores bit for bit as series.Standardized
// does.
func TestOverflowingInputIsRefused(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 54)
	corpus := g.Dataset(40)
	for _, v := range []float64{1e200, 1e308} {
		data := append([]*series.Series(nil), corpus...)
		data[17] = overflowing(corpus[17], v)
		if _, err := NewEngine(data, Config{}); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), data[17].Name) {
			t.Errorf("build with ±%g: error %v, want ErrNonFinite naming %q", v, err, data[17].Name)
		}
	}

	e, err := NewEngine(corpus, Config{DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before, _, err := similarToID(e, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1e200, 1e308} {
		bad := overflowing(g.Queries(1)[0], v)
		if _, err := e.Add(bad); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
			t.Errorf("Add with ±%g: error %v, want ErrNonFinite naming %q", v, err, bad.Name)
		}
	}
	if e.Len() != len(corpus) || e.Store().Len() != len(corpus) {
		t.Errorf("refused Adds left %d series and %d rows, want %d of each", e.Len(), e.Store().Len(), len(corpus))
	}
	after, _, err := similarToID(e, 3, 5)
	if err != nil || fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("answer after the refusals: %v (%v), want %v", after, err, before)
	}

	for _, s := range corpus[:8] {
		z := make([]float64, s.Len())
		if err := Standardize(z, s.Values); err != nil {
			t.Fatal(err)
		}
		for i, want := range s.Standardized().Values {
			if math.Float64bits(z[i]) != math.Float64bits(want) {
				t.Fatalf("%s point %d: Standardize %v, series.Standardized %v", s.Name, i, z[i], want)
			}
		}
	}
}
