package core

import (
	"sort"
	"testing"

	"repro/internal/series"
)

func sameNeighbors(t *testing.T, label string, a, b []Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d neighbours", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: neighbour %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// bruteNeighbors is the oracle: every stored series measured against the
// standardized query, ranked in canonical (dist, id) order, top k.
func bruteNeighbors(t *testing.T, e *Engine, values []float64, k int) []Neighbor {
	t.Helper()
	z, err := standardizeQuery(values, e.SeqLen(), false)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Neighbor, e.Len())
	for id := range all {
		row, err := e.StandardizedValues(id)
		if err != nil {
			t.Fatal(err)
		}
		d, err := series.Euclidean(z, row)
		if err != nil {
			t.Fatal(err)
		}
		all[id] = Neighbor{ID: id, Name: e.Name(id), Dist: d}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].ID < all[b].ID
	})
	return all[:min(k, len(all))]
}

// 100-trial engine-level sweep against the brute-force oracle: every public
// by-values search surface — KindSimilar and KindLinear —
// must return exactly the oracle's neighbours, bit-identical distances and
// canonical ties, over randomized queries and k (including k ≥ n).
func TestFlatEngineEquivalenceSweep(t *testing.T) {
	e, trials := sweepCorpus(t)
	for _, tr := range trials {
		want := bruteNeighbors(t, e, tr.q, tr.k)
		got, _, err := similarQueries(e, tr.q, tr.k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "similar", got, want)
		lin, err := linearScan(e, tr.q, tr.k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "linear", lin, want)
	}
	if ts := e.ScanTotals(); ts.Searches == 0 || ts.Bounds == 0 {
		t.Fatalf("engine never used the kernels: %+v", ts)
	}
}
