package knn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/spectral"
	"repro/internal/stats"
)

// scanCorpus is n generated series of length days, standardized into a
// memory store, with their features (BestMinError at budget 16) packed in
// an arena in ID order, as an engine holds them.
func scanCorpus(t *testing.T, n, days int, seed int64) (*spectral.Arena, seqstore.Store, *querylog.Generator) {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, days, seed)
	store, err := seqstore.NewMemory(days)
	if err != nil {
		t.Fatal(err)
	}
	var feats []*spectral.Compressed
	for _, s := range g.Dataset(n) {
		z := append([]float64(nil), s.Values...)
		stats.StandardizeInPlace(z)
		if _, err := store.Append(z); err != nil {
			t.Fatal(err)
		}
		h, err := spectral.FromValues(z)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spectral.Compress(h, spectral.BestMinError, 16)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, c)
	}
	arena, err := spectral.NewArena(feats)
	if err != nil {
		t.Fatal(err)
	}
	return arena, store, g
}

// scanReport is everything a scan lets a caller see, its wall times left out.
type scanReport struct {
	res                    []Result
	st                     ScanStats
	truncated, approximate bool
	floor                  float64
}

func scanWith(t *testing.T, arena *spectral.Arena, store seqstore.Store, q []float64, k int, lim lifecycle.Limits, seed float64, cut func(float64) float64) scanReport {
	t.Helper()
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Release()
	g := lifecycle.NewGate(context.Background(), lim)
	if !math.IsInf(seed, 1) {
		g = g.Seeded(seed)
	}
	var r scanReport
	if r.res, r.st, err = scan(pq, k, arena, store, g, cut); err != nil {
		t.Fatal(err)
	}
	r.st.ScanMS, r.st.FilterMS, r.st.RefineMS = 0, 0, 0
	r.truncated, r.approximate, r.floor = g.Truncated(), g.Approximate(), g.BoundFloor()
	return r
}

// TestScanInvariantToAbandon: the scan as served — bounds abandoned past
// σ_UB — answers, counts and tells the gate exactly what a scan that
// finishes every bound does; only the abandoned count moves. Over queries
// easy and hard, k from 1 to past the corpus, every dial the gate has, and a
// seeded σ_UB.
func TestScanInvariantToAbandon(t *testing.T) {
	arena, store, g := scanCorpus(t, 600, 256, 11)
	rng := rand.New(rand.NewSource(5))
	var queries [][]float64
	for _, s := range g.Queries(6) {
		queries = append(queries, s.Values)
	}
	for _, sigma := range []float64{0.05, 1} { // stored rows with noise of two sizes
		for range 3 {
			row, err := store.Get(rng.Intn(store.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range row {
				row[i] += sigma * rng.NormFloat64()
			}
			queries = append(queries, row)
		}
	}
	dials := []lifecycle.Limits{
		{},
		{MaxNodes: 300},
		{MaxExact: 3},
		{Epsilon: 0.2},
		{Delta: 0.5},
		{NProbe: 200},
	}
	inf := math.Inf(1)
	var abandoned int
	for qi, q := range queries {
		z := append([]float64(nil), q...)
		stats.StandardizeInPlace(z)
		for _, k := range []int{1, 5, 40, 700} {
			for di, lim := range dials {
				for _, seed := range []float64{inf, 30} {
					label := fmt.Sprintf("query %d k=%d dial %d seed %v", qi, k, di, seed)
					served := scanWith(t, arena, store, z, k, lim, seed, spectral.AbandonCut)
					full := scanWith(t, arena, store, z, k, lim, seed, func(float64) float64 { return inf })
					if full.st.Abandoned != 0 {
						t.Fatalf("%s: the scan with the cut at +Inf abandoned %d bounds", label, full.st.Abandoned)
					}
					abandoned += served.st.Abandoned
					served.st.Abandoned = 0
					if !reflect.DeepEqual(served, full) {
						t.Fatalf("%s: abandoning changed the scan:\n served %+v\n full   %+v", label, served, full)
					}
				}
			}
		}
	}
	if abandoned == 0 {
		t.Error("no scan abandoned a bound: the test compares a scan with itself")
	}
}
