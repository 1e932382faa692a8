package mvptree

import (
	"runtime"
	"testing"

	"repro/internal/spectral"
)

// Pool poisoning: a search that fills the pooled scratch with many
// candidates and a deep σ_UB heap must leave nothing behind for the next,
// smaller search; and the prepared entry point is the by-values search.
func TestScratchReuseDoesNotLeakBetweenSearches(t *testing.T) {
	fx := buildFixture(t, 200, 64, Options{LeafSize: 6, Seed: 4}, 17)
	small := fx.values[3] // an indexed series: tight bounds, few candidates
	// Drop every pooled scratch (a sync.Pool survives one GC in its victim
	// cache, not two), so the reference search starts from new buffers.
	runtime.GC()
	runtime.GC()
	want, wantSt, err := fx.tree.Search(small, 1, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	big, bigSt, err := fx.tree.Search(fx.queries[1], 200, fx.store) // k = n
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 200 || bigSt.Candidates <= 4*wantSt.Candidates {
		t.Fatalf("poisoning search too small: %d results, %d vs %d candidates",
			len(big), bigSt.Candidates, wantSt.Candidates)
	}
	q, err := spectral.Prepare(small)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, truncated, err := fx.tree.SearchPrepared(q, 1, fx.store, nil)
	if err != nil || truncated {
		t.Fatalf("SearchPrepared: truncated %v err %v", truncated, err)
	}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("after a large search: %v, from new buffers %v", got, want)
	}
	if gotSt != wantSt {
		t.Fatalf("stats after a large search %+v, from new buffers %+v", gotSt, wantSt)
	}
}
