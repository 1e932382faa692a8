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
	"repro/internal/spectral"
)

func TestNewValidation(t *testing.T) {
	if _, err := newSharded(core.SliceSource(nil), core.Config{Shards: 2}); err == nil {
		t.Fatal("newSharded(empty dataset) succeeded")
	}
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(4)
	data = append(data, &series.Series{Name: "short", Values: make([]float64, 32)})
	if _, err := newSharded(core.SliceSource(data), core.Config{Budget: 8, Shards: 2}); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Fatalf("newSharded(core.SliceSource(mixed lengths) err = %v), want length rejection", err)
	}
}

// engines builds data into a single engine and into each of the given shard
// counts: the ways a request reaches the one resolver (core.Envelope).
func engines(t *testing.T, data []*series.Series, cfg core.Config, shardCounts ...int) map[string]core.Searcher {
	t.Helper()
	single, err := core.NewEngine(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	out := map[string]core.Searcher{"single engine": single}
	for _, shards := range shardCounts {
		c := cfg
		c.Shards = shards
		se, err := newSharded(core.SliceSource(data), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { se.Close() })
		out[fmt.Sprintf("%d shard(s)", shards)] = se
	}
	return out
}

// buildRefuses checks that a single engine and one or three shards refuse
// data with series 4's points replaced by values, with ErrNonFinite naming
// that series.
func buildRefuses(t *testing.T, data []*series.Series, what string, values []float64) {
	t.Helper()
	bad := *data[4]
	bad.Values = values
	set := append([]*series.Series(nil), data...)
	set[4] = &bad
	if _, err := core.NewEngine(set, core.Config{Budget: 8}); !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
		t.Errorf("single engine build with %s: %v, want ErrNonFinite naming %q", what, err, bad.Name)
	}
	for _, shards := range []int{1, 3} {
		if _, err := newSharded(core.SliceSource(set), core.Config{Budget: 8, Shards: shards}); !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), bad.Name) {
			t.Errorf("%d shard(s) build with %s: %v, want ErrNonFinite naming %q", shards, what, err, bad.Name)
		}
	}
}

// queriesRefuse builds data into a single engine and one and three shards,
// and checks on each that every request of reqs fails with want, because one
// resolver turns every request into its query, and that the engine answers
// as before afterwards: Len is unchanged and a k = n−1 query by ID returns
// what it returned first.
func queriesRefuse(t *testing.T, data []*series.Series, want error, reqs []core.Request) {
	t.Helper()
	first := core.Request{Kind: core.KindSimilarID, ID: 0, K: len(data) - 1}
	for name, s := range engines(t, data, core.Config{Budget: 8}, 1, 3) {
		before, err := s.Query(context.Background(), first)
		if err != nil || len(before.Neighbors) != len(data)-1 {
			t.Fatalf("%s: k = %d answers %v (%v)", name, len(data)-1, before, err)
		}
		for _, req := range reqs {
			if resp, err := s.Query(context.Background(), req); !errors.Is(err, want) {
				t.Errorf("%s: %v query (ID %d, %d values): response %v, error %v, want %v",
					name, req.Kind, req.ID, len(req.Values), resp, err, want)
			}
		}
		after, err := s.Query(context.Background(), first)
		if err != nil || s.Len() != len(data) {
			t.Fatalf("%s: after the refusals Len = %d, error %v", name, s.Len(), err)
		}
		requireSameResponse(t, name+": after the refusals", before, after)
	}
}

// byValues is one query of values for every kind a curve can address.
func byValues(values []float64) []core.Request {
	return []core.Request{
		{Kind: core.KindSimilar, Values: values, K: 2},
		{Kind: core.KindLinear, Values: values, K: 2},
		{Kind: core.KindDTW, Values: values, ID: -1, K: 2, Band: 3},
		{Kind: core.KindSimilarPeriods, Values: values, ID: -1, K: 2, Periods: []float64{7}},
		{Kind: core.KindBurst, Values: values, K: 2},
	}
}

// A sharded engine refuses a NaN or an infinity where a single engine does:
// the build names the series, and a query, raw or standardized, fails before
// any shard sees it.
func TestNonFiniteInputIsRefused(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(9)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64(nil), data[4].Values...)
		bad[10] = v
		buildRefuses(t, data, fmt.Sprint(v), bad)
		reqs := append(byValues(bad), core.Request{Kind: core.KindSimilar, Values: bad, K: 2, Standardized: true})
		queriesRefuse(t, data, core.ErrNonFinite, reqs)
	}
}

// A finite series whose z-scores overflow (points alternating ±1e200 have a
// standard deviation of +Inf, ±1e308 a NaN mean) is refused as a NaN is, by
// a single engine and by one shard or three: the build names it, and every
// Values-mode query refuses it. Before, one such series left a shard
// answering no similar neighbours, so a 3-shard engine returned fewer than k.
func TestOverflowingInputIsRefused(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 8)
	data := gen.Dataset(21)
	for _, v := range []float64{1e200, 1e308} {
		values := make([]float64, 64)
		for i := range values {
			values[i] = v
			if i%2 == 1 {
				values[i] = -v
			}
		}
		what := fmt.Sprintf("±%g", v)
		buildRefuses(t, data, what, values)
		queriesRefuse(t, data, core.ErrNonFinite, byValues(values))
	}
}

// A query curve of the wrong length is refused with spectral.ErrMismatch by
// a single engine and by one or three shards alike.
func TestWrongLengthQueryIsRefused(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 8)
	data := gen.Dataset(21)
	queriesRefuse(t, data, spectral.ErrMismatch, byValues(make([]float64, 5))[:4])
}

// Every ID-addressed kind, and the Series and StandardizedValues reads,
// refuse an ID the engine does not hold with seqstore.ErrNotFound — a single
// engine and one or three shards alike — instead of answering for an empty
// pattern.
func TestUnknownIDIsNotFound(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 9)
	data := gen.Dataset(12)
	var reqs []core.Request
	for _, id := range []int{-1, len(data), 1000} {
		reqs = append(reqs,
			core.Request{Kind: core.KindSimilarID, ID: id, K: 3},
			core.Request{Kind: core.KindLinear, ID: id, K: 3},
			core.Request{Kind: core.KindDTW, ID: id, K: 3, Band: 3},
			core.Request{Kind: core.KindSimilarPeriods, ID: id, K: 3, Periods: []float64{7}},
			core.Request{Kind: core.KindBurstID, ID: id, K: 3, Window: core.Short},
			core.Request{Kind: core.KindBurstID, ID: id, K: 3, Window: core.Long})
	}
	queriesRefuse(t, data, seqstore.ErrNotFound, reqs)
	for name, s := range engines(t, data, core.Config{Budget: 8}, 1, 3) {
		for _, id := range []int{-1, len(data)} {
			if _, err := s.Series(id); !errors.Is(err, seqstore.ErrNotFound) {
				t.Errorf("%s: Series(%d) error %v, want ErrNotFound", name, id, err)
			}
			if _, err := s.StandardizedValues(id); !errors.Is(err, seqstore.ErrNotFound) {
				t.Errorf("%s: StandardizedValues(%d) error %v, want ErrNotFound", name, id, err)
			}
		}
	}
}
