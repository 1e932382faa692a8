package shard

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/seqstore"
)

// Eight shards, each owning its rows and therefore its sketch: each shard's
// sketch covers exactly its rows, and the scattered index search (which
// consults the sketches) answers like the scattered linear scan (which does
// not).
func TestSketchTracksEveryShard(t *testing.T) {
	const shards = 8
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 31)
	se, err := newSharded(core.SliceSource(g.Dataset(120)), core.Config{Budget: 8, Workers: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	check := func(stage string) (skips int) {
		t.Helper()
		for sh := 0; sh < shards; sh++ {
			eng := se.Engine(sh)
			if eng == nil {
				continue
			}
			if got := seqstore.NewReader(eng.Store()).Sketch().Len(); got != eng.Len() {
				t.Fatalf("%s: shard %d sketch covers %d rows of %d", stage, sh, got, eng.Len())
			}
		}
		for id := 0; id < se.Len(); id += 3 {
			idx, err := se.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: id, K: 4})
			if err != nil {
				t.Fatal(err)
			}
			skips += idx.Stats.SketchSkips
			z, err := se.StandardizedValues(id)
			if err != nil {
				t.Fatal(err)
			}
			lin, err := se.Query(context.Background(), core.Request{Kind: core.KindLinear, Values: z, Standardized: true, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			want := lin.Neighbors[:0:0]
			for _, n := range lin.Neighbors {
				if n.ID != id && len(want) < 4 {
					want = append(want, n)
				}
			}
			if len(idx.Neighbors) != len(want) {
				t.Fatalf("%s id %d: index %d neighbours, scan %d", stage, id, len(idx.Neighbors), len(want))
			}
			for i, n := range idx.Neighbors {
				if n.ID != want[i].ID || math.Float64bits(n.Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s id %d rank %d: index %d@%v, scan %d@%v", stage, id, i, n.ID, n.Dist, want[i].ID, want[i].Dist)
				}
			}
		}
		return skips
	}
	if check("built") == 0 {
		t.Error("no shard's sketch spared a read")
	}
}
