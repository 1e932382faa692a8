package vptree

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

// emptyPools drops every pooled scratch (a sync.Pool survives one GC in its
// victim cache, not two), so the next search starts from new buffers.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// A search over a prepared query is the steady-state serving path: with the
// query's spectrum built by the caller and every working buffer pooled, the
// only thing left to allocate is the result slice handed back.
func TestPreparedSearchAllocatesOnlyItsResult(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	fx := buildFixture(t, 300, 128, Options{Budget: 16}, 5)
	q, err := spectral.Prepare(fx.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	var feats FeatureSource = fx.tree.Features() // boxed once, outside the measured call
	search := func() {
		res, _, _, err := fx.tree.SearchPrepared(q, 10, feats, fx.store, nil)
		if err != nil || len(res) != 10 {
			t.Fatalf("search: %d results, err %v", len(res), err)
		}
	}
	search() // size the pooled scratch
	if allocs := testing.AllocsPerRun(50, search); allocs > 1 {
		t.Fatalf("prepared search allocates %.0f objects per run, want 1 (the result slice)", allocs)
	}
}

// The by-values entry points and the prepared one are the same search.
func TestSearchPreparedMatchesSearch(t *testing.T) {
	fx := buildFixture(t, 120, 64, Options{LeafSize: 6, Seed: 9}, 21)
	feats := fx.tree.Features()
	for _, qv := range fx.queries {
		q, err := spectral.Prepare(qv)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := fx.tree.Search(qv, 7, feats, fx.store)
		if err != nil {
			t.Fatal(err)
		}
		// One prepared query serves any number of searches, over the table
		// passed in or (nil) the tree's own.
		for _, src := range []FeatureSource{feats, nil} {
			got, gotSt, truncated, err := fx.tree.SearchPrepared(q, 7, src, fx.store, nil)
			if err != nil || truncated {
				t.Fatalf("SearchPrepared: truncated %v err %v", truncated, err)
			}
			sameResults(t, "prepared", got, want)
			if gotSt != wantSt {
				t.Fatalf("stats diverge: prepared %+v vs by-values %+v", gotSt, wantSt)
			}
		}
	}
	short, err := spectral.Prepare(fx.queries[0][:32])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fx.tree.SearchPrepared(short, 1, feats, fx.store, nil); err != spectral.ErrMismatch {
		t.Fatalf("wrong-length prepared query: err = %v, want ErrMismatch", err)
	}
}

// Pool poisoning: a search that fills the pooled scratch with many
// candidates and a deep σ_UB heap must leave nothing behind for the next,
// smaller search — with either bound source.
func TestScratchReuseDoesNotLeakBetweenSearches(t *testing.T) {
	fx := buildFixture(t, 200, 64, Options{LeafSize: 8, Seed: 4}, 17)
	disk := diskCopy(t, fx.tree)
	paths := map[string]func(q []float64, k int) ([]Result, Stats, error){
		"memory": func(q []float64, k int) ([]Result, Stats, error) {
			return fx.tree.Search(q, k, fx.tree.Features(), fx.store)
		},
		"disk": func(q []float64, k int) ([]Result, Stats, error) {
			return fx.tree.Search(q, k, disk, fx.store)
		},
	}
	for name, search := range paths {
		small := fx.values[3] // an indexed series: tight bounds, few candidates
		emptyPools()
		want, wantSt, err := search(small, 1)
		if err != nil {
			t.Fatal(err)
		}
		big, bigSt, err := search(fx.queries[1], 200) // k = n: every object is a candidate
		if err != nil {
			t.Fatal(err)
		}
		if len(big) != 200 || bigSt.Candidates <= 4*wantSt.Candidates {
			t.Fatalf("%s: poisoning search too small: %d results, %d vs %d candidates",
				name, len(big), bigSt.Candidates, wantSt.Candidates)
		}
		got, gotSt, err := search(small, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, name+" after a large search", got, want)
		if gotSt != wantSt {
			t.Fatalf("%s: stats after a large search %+v, from new buffers %+v", name, gotSt, wantSt)
		}
	}
}

// cancelAfter is a memory store whose n-th read cancels the request, so the
// cancellation lands in the middle of refinement, deterministically.
type cancelAfter struct {
	*seqstore.Memory
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfter) Row(id int) ([]float64, error) {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Memory.Row(id)
}

// A request cancelled mid-refine fails with the context's error at the next
// read (the per-read check of seqstore.WithContext, in place or not), on
// the search's own goroutine, and hands its scratch back: the searches that
// follow find the pool as they would have and answer as before.
func TestCancelMidRefineReturnsContextError(t *testing.T) {
	fx := buildFixture(t, 300, 128, Options{Budget: 16}, 5)
	var feats FeatureSource = fx.tree.Features()
	q, err := spectral.Prepare(fx.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, _, err := fx.tree.SearchPrepared(q, 10, feats, fx.store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantSt.FullRetrievals < 10 {
		t.Fatalf("fixture refines only %d candidates", wantSt.FullRetrievals)
	}

	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := seqstore.WithContext(ctx, &cancelAfter{Memory: fx.store, cancel: cancel, left: 3})
	if _, ok := seqstore.Rows(store); !ok {
		t.Fatal("test store must keep the zero-copy path")
	}
	g := lifecycle.NewGate(ctx, lifecycle.Limits{})
	res, st, _, err := fx.tree.SearchPrepared(q, 10, feats, store, g)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled mid-refine: res %v err %v, want nil and context.Canceled", res, err)
	}
	if st.FullRetrievals != 3 {
		t.Fatalf("FullRetrievals = %d, want the 3 reads before the cancel", st.FullRetrievals)
	}
	// The cancelled search must leave no goroutine behind. Only "no more than
	// before" is its doing: goroutines of earlier tests may still be winding
	// down (the count has read 3 before, 2 after under -race), and one seen
	// mid-exit gets a moment to finish.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the cancelled search", goroutines, runtime.NumGoroutine())
		}
	}

	search := func() {
		got, gotSt, _, err := fx.tree.SearchPrepared(q, 10, feats, fx.store, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "after a cancelled search", got, want)
		if gotSt != wantSt {
			t.Fatalf("stats after a cancelled search %+v, before %+v", gotSt, wantSt)
		}
	}
	search()
	if !israce.Enabled { // see TestPreparedSearchAllocatesOnlyItsResult
		if allocs := testing.AllocsPerRun(20, search); allocs > 1 {
			t.Fatalf("searches after a cancelled one allocate %.0f objects per run, want 1", allocs)
		}
	}
}
