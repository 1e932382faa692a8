package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
)

func TestNewValidation(t *testing.T) {
	if _, err := newSharded(nil, core.Config{Shards: 2}); err == nil {
		t.Fatal("newSharded(empty dataset) succeeded")
	}
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(4)
	data = append(data, &series.Series{Name: "short", Values: make([]float64, 32)})
	if _, err := newSharded(data, core.Config{Budget: 8, Shards: 2}); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Fatalf("newSharded(mixed lengths) err = %v, want length rejection", err)
	}
}

// A sharded engine refuses non-finite input where a single engine does: the
// build names the series, and a query fails before any shard sees it.
func TestNonFiniteInputIsRefused(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(9)
	bad := *data[4]
	bad.Values = append([]float64(nil), bad.Values...)
	bad.Values[10] = math.NaN()
	poisonedSet := append([]*series.Series(nil), data...)
	poisonedSet[4] = &bad
	if _, err := newSharded(poisonedSet, core.Config{Budget: 8, Shards: 3}); !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
		t.Errorf("build: %v, want ErrNonFinite naming %q", err, bad.Name)
	}

	se, err := newSharded(data, core.Config{Budget: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for _, kind := range []core.Kind{core.KindSimilar, core.KindLinear, core.KindDTW, core.KindBurst} {
		resp, err := se.Query(context.Background(), core.Request{Kind: kind, K: 2, ID: -1, Values: bad.Values})
		if !errors.Is(err, core.ErrNonFinite) {
			t.Errorf("%v query: response %v, error %v, want ErrNonFinite", kind, resp, err)
		}
	}
	if got := se.Len(); got != len(data) {
		t.Errorf("Len = %d after the refusals, want %d", got, len(data))
	}
}

// A finite series whose z-scores overflow (points alternating ±1e200 have a
// standard deviation of +Inf, ±1e308 a NaN mean) is refused as a NaN is, by
// one shard or three: the build names it, and every Values-mode query
// refuses it. Before, one such series left a shard answering no
// similar neighbours, so a 3-shard engine returned fewer than k.
func TestOverflowingInputIsRefused(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 8)
	data := gen.Dataset(21)
	for _, shards := range []int{1, 3} {
		for _, v := range []float64{1e200, 1e308} {
			bad := *data[4]
			bad.Values = make([]float64, len(data[4].Values))
			for i := range bad.Values {
				bad.Values[i] = v
				if i%2 == 1 {
					bad.Values[i] = -v
				}
			}
			poisonedSet := append([]*series.Series(nil), data...)
			poisonedSet[4] = &bad
			if _, err := newSharded(poisonedSet, core.Config{Budget: 8, Shards: shards}); !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
				t.Errorf("%d shard(s), ±%g: build: %v, want ErrNonFinite naming %q", shards, v, err, bad.Name)
			}

			se, err := newSharded(data, core.Config{Budget: 8, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []core.Kind{core.KindSimilar, core.KindLinear, core.KindDTW, core.KindSimilarPeriods, core.KindBurst} {
				req := core.Request{Kind: kind, K: 2, ID: -1, Values: bad.Values, Periods: []float64{7}}
				if resp, err := se.Query(context.Background(), req); !errors.Is(err, core.ErrNonFinite) {
					t.Errorf("%d shard(s), ±%g: %v query: response %v, error %v, want ErrNonFinite", shards, v, kind, resp, err)
				}
			}
			resp, err := se.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: 0, K: len(data) - 1})
			if err != nil || len(resp.Neighbors) != len(data)-1 || se.Len() != len(data) {
				t.Errorf("%d shard(s), ±%g: after the refusals Len = %d and a k = %d query answers %v (%v)", shards, v, se.Len(), len(data)-1, resp, err)
			}
			se.Close()
		}
	}
}

// Every ID-addressed kind refuses an ID the engine does not hold with
// seqstore.ErrNotFound — a single engine and one or three shards alike —
// instead of answering for an empty pattern.
func TestUnknownIDIsNotFound(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 9)
	data := gen.Dataset(12)
	single, err := core.NewEngine(data, core.Config{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	engines := map[string]core.Searcher{"single engine": single}
	for _, shards := range []int{1, 3} {
		se, err := newSharded(data, core.Config{Budget: 8, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		engines[fmt.Sprintf("%d shard(s)", shards)] = se
	}
	for name, s := range engines {
		for _, id := range []int{-1, len(data), 1000} {
			for _, req := range []core.Request{
				{Kind: core.KindSimilarID, ID: id, K: 3},
				{Kind: core.KindDTW, ID: id, K: 3, Band: 3},
				{Kind: core.KindSimilarPeriods, ID: id, K: 3, Periods: []float64{7}},
				{Kind: core.KindBurstID, ID: id, K: 3, Window: core.Short},
				{Kind: core.KindBurstID, ID: id, K: 3, Window: core.Long},
			} {
				if resp, err := s.Query(context.Background(), req); !errors.Is(err, seqstore.ErrNotFound) {
					t.Errorf("%s: %v of ID %d: response %v, error %v, want seqstore.ErrNotFound", name, req.Kind, id, resp, err)
				}
			}
		}
	}
}
