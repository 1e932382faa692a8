package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
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

// TestAddDormantShard covers the partition growing into shards the initial
// hash left empty: a one-series engine across many shards starts mostly
// dormant, and DynamicIndex Adds must wake each shard exactly when the
// router first assigns it a series — with queries correct at every step.
func TestAddDormantShard(t *testing.T) {
	const shards = 8
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	all := gen.Dataset(24)
	se, err := newSharded(all[:1], core.Config{Budget: 8, DynamicIndex: true, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	live := 0
	for sh := 0; sh < shards; sh++ {
		if se.Engine(sh) != nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("fresh one-series engine has %d live shards, want 1", live)
	}

	// Length mismatches must be rejected on live and dormant shards alike,
	// without mutating the routing tables.
	if _, err := se.Add(&series.Series{Name: "short", Values: make([]float64, 32)}); err == nil {
		t.Fatal("Add(short series) succeeded")
	}
	if got := se.Len(); got != 1 {
		t.Fatalf("failed Add mutated routing: Len = %d, want 1", got)
	}

	ctx := context.Background()
	for gid := 1; gid < len(all); gid++ {
		id, err := se.Add(all[gid])
		if err != nil {
			t.Fatalf("Add(%q): %v", all[gid].Name, err)
		}
		if id != gid {
			t.Fatalf("Add(%q) = id %d, want %d", all[gid].Name, id, gid)
		}
		sh, local, ok := se.Owner(id)
		if !ok || sh != route(uint64(id), shards) {
			t.Fatalf("Owner(%d) = (%d, %v), want shard %d", id, sh, ok, route(uint64(id), shards))
		}
		if eng := se.Engine(sh); eng == nil {
			t.Fatalf("owner shard %d still dormant after Add", sh)
		} else if name := eng.Name(local); name != all[gid].Name {
			t.Fatalf("owner shard stores %q at local %d, want %q", name, local, all[gid].Name)
		}
		resp, err := se.Query(ctx, core.Request{Kind: core.KindSimilarID, ID: id, K: 3})
		if err != nil {
			t.Fatalf("query-by-id %d after Add: %v", id, err)
		}
		if want := min(3, se.Len()-1); len(resp.Neighbors) != want {
			t.Fatalf("query-by-id %d: %d neighbours, want %d", id, len(resp.Neighbors), want)
		}
	}

	sizes := se.ShardSizes()
	total := 0
	for sh, n := range sizes {
		total += n
		if (n == 0) != (se.Engine(sh) == nil) {
			t.Fatalf("shard %d: size %d but engine nil=%v", sh, n, se.Engine(sh) == nil)
		}
	}
	if total != len(all) {
		t.Fatalf("ShardSizes sum to %d, want %d", total, len(all))
	}
	for sh, n := range sizes {
		if eng := se.Engine(sh); eng != nil && eng.Tree().Len() != n {
			t.Fatalf("shard %d: %d tree nodes, %d series", sh, eng.Tree().Len(), n)
		}
	}

	// Lookup/Name/Series resolve through the routing tables.
	for gid, s := range all {
		if got, ok := se.Lookup(s.Name); !ok || se.Name(got) != s.Name {
			t.Fatalf("Lookup(%q) = (%d, %v)", s.Name, got, ok)
		}
		ser, err := se.Series(gid)
		if err != nil || ser.Name != s.Name {
			t.Fatalf("Series(%d) = (%v, %v), want %q", gid, ser, err, s.Name)
		}
	}
}

func TestAddWithoutDynamicIndex(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	se, err := newSharded(gen.Dataset(4), core.Config{Budget: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.Add(gen.Queries(1)[0]); err == nil ||
		!strings.Contains(err.Error(), "DynamicIndex") {
		t.Fatalf("Add without DynamicIndex: err = %v, want DynamicIndex rejection", err)
	}
}

// Add derives everything fallible before it takes the routing lock, so a
// series of the wrong length is refused while a scatter (or, here, the test)
// holds that lock.
func TestAddFailsBeforeTheRoutingLock(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	se, err := newSharded(gen.Dataset(6), core.Config{Budget: 8, DynamicIndex: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	se.mu.Lock()
	refused := make(chan error, 1)
	go func() {
		_, err := se.Add(&series.Series{Name: "short", Values: make([]float64, 32)})
		refused <- err
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, spectral.ErrMismatch) {
			t.Errorf("Add(short series) under a held routing lock: %v, want ErrMismatch", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Add(short series) waited for the routing lock")
	}
	se.mu.Unlock()
	if _, err := se.Add(gen.Queries(1)[0]); err != nil {
		t.Fatal(err)
	}
	if got := se.Len(); got != 7 {
		t.Fatalf("Len = %d after one refused and one accepted Add to 6 series", got)
	}
}

// A sharded engine refuses non-finite input where a single engine does: the
// build names the series, Add fails before the routing lock and a query
// before any shard sees it.
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

	se, err := newSharded(data, core.Config{Budget: 8, DynamicIndex: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.Add(&bad); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("Add: %v, want ErrNonFinite", err)
	}
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
// one shard or three: the build names it, Add refuses it, and so does every
// Values-mode query. Before, one such series left a shard answering no
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

			se, err := newSharded(data, core.Config{Budget: 8, DynamicIndex: true, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := se.Add(&bad); !errors.Is(err, core.ErrNonFinite) {
				t.Errorf("%d shard(s), ±%g: Add: %v, want ErrNonFinite", shards, v, err)
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
