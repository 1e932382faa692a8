package knn

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/seqstore"
)

// lineStore holds the one-element sequences {0}, {1}, ..., {n-1}, so the
// exact distance of id to the query {q} is |id − q|.
func lineStore(t *testing.T, n int, disk bool) seqstore.Store {
	t.Helper()
	var st seqstore.Store
	if disk {
		d, err := seqstore.Create(filepath.Join(t.TempDir(), "seq.bin"), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		st = d
	} else {
		m, err := seqstore.NewMemory(1)
		if err != nil {
			t.Fatal(err)
		}
		st = m
	}
	for i := 0; i < n; i++ {
		if _, err := st.Append([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// collectLine adds ids with the loosest sound bounds (lb 0, ub +Inf) unless
// tight, in which case both bounds are the exact distance.
func collectLine(s *Scratch, q float64, ids []int, tight bool) {
	for _, id := range ids {
		lb, ub := 0.0, math.Inf(1)
		if tight {
			lb = math.Abs(float64(id) - q)
			ub = lb
		}
		s.Add(id, lb, ub)
	}
}

func TestRefineKeepsKSmallestInCanonicalOrder(t *testing.T) {
	for _, disk := range []bool{false, true} {
		store := lineStore(t, 10, disk)
		s := Get(3)
		if !math.IsInf(s.SigmaUB(), 1) || s.Collected() != 0 {
			t.Fatal("fresh scratch not reset")
		}
		// Query 4.5: ids 4 and 5 tie at 0.5, 3 and 6 tie at 1.5. Refinement
		// order (descending id) must not show in the answer.
		collectLine(s, 4.5, []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, false)
		kept, dropped := s.Filter(nil)
		if kept != 10 || dropped != 0 {
			t.Fatalf("Filter = (%d, %d), want (10, 0)", kept, dropped)
		}
		res, st, err := s.Refine([]float64{4.5}, store, nil)
		s.Release()
		if err != nil {
			t.Fatal(err)
		}
		want := []Result{{4, 0.5}, {5, 0.5}, {3, 1.5}}
		if len(res) != len(want) {
			t.Fatalf("disk=%v: got %v", disk, res)
		}
		for i := range want {
			if res[i] != want[i] {
				t.Errorf("disk=%v rank %d = %+v, want %+v", disk, i, res[i], want[i])
			}
		}
		if st.FullRetrievals != 10 || st.ExactDistances != 10 {
			t.Errorf("disk=%v: stats %+v, want 10 reads and distances", disk, st)
		}
		if st.EarlyAbandons == 0 {
			t.Errorf("disk=%v: far candidates should early-abandon: %+v", disk, st)
		}
	}
}

func TestFilterAndCutoffUseTheBounds(t *testing.T) {
	store := lineStore(t, 10, false)
	s := Get(2)
	defer s.Release()
	collectLine(s, 0, []int{7, 0, 3, 9, 1, 5}, true)
	if s.SigmaUB() != 1 {
		t.Fatalf("σ_UB = %v, want 1 (second smallest upper bound)", s.SigmaUB())
	}
	kept, dropped := s.Filter(nil)
	if kept != 2 || dropped != 4 {
		t.Fatalf("Filter = (%d, %d), want (2, 4)", kept, dropped)
	}
	res, st, err := s.Refine([]float64{0}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != (Result{0, 0}) || res[1] != (Result{1, 1}) {
		t.Fatalf("got %v", res)
	}
	if st.FullRetrievals != 2 {
		t.Errorf("FullRetrievals = %d, want 2", st.FullRetrievals)
	}
}

// Tight bounds inverted by an ulp of rounding (lb just above ub) must not
// make every holder of a smallest upper bound fail its own σ_UB filter.
func TestAddClampsInvertedBounds(t *testing.T) {
	store := lineStore(t, 4, false)
	s := Get(2)
	defer s.Release()
	for id := 0; id < 4; id++ {
		d := float64(id)
		s.Add(id, math.Nextafter(d, math.Inf(1)), d)
	}
	if kept, _ := s.Filter(nil); kept != 2 {
		t.Fatalf("Filter kept %d candidates, want the 2 nearest", kept)
	}
	res, _, err := s.Refine([]float64{0}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != (Result{0, 0}) || res[1] != (Result{1, 1}) {
		t.Fatalf("got %v", res)
	}
}

func TestRefineFewerThanK(t *testing.T) {
	store := lineStore(t, 3, false)
	s := Get(1 << 40)
	defer s.Release()
	if res, _, err := s.Refine([]float64{0}, store, nil); err != nil || res != nil {
		t.Fatalf("no candidates: got %v, %v; want nil, nil", res, err)
	}
	collectLine(s, 0, []int{2, 0, 1}, false)
	s.Filter(nil)
	res, _, err := s.Refine([]float64{0}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].ID != 0 || res[2].ID != 2 {
		t.Fatalf("got %v", res)
	}
}

// A scratch that held a large search must behave, on its next use, exactly
// like a new one: Get resets everything a search reads.
func TestScratchReuseIsClean(t *testing.T) {
	store := lineStore(t, 64, false)
	run := func(s *Scratch) ([]Result, RefineStats, float64) {
		collectLine(s, 10, []int{12, 9, 30}, true)
		sigma := s.SigmaUB()
		s.Filter(nil)
		res, st, err := s.Refine([]float64{10}, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, st, sigma
	}
	fresh := new(Scratch)
	fresh.k, fresh.sigmaUB = 2, math.Inf(1)
	wantRes, wantSt, wantSigma := run(fresh)

	big := Get(40)
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	collectLine(big, 0, ids, true)
	big.BoundBufs(32)
	big.Filter(nil)
	if _, _, err := big.Refine([]float64{0}, store, nil); err != nil {
		t.Fatal(err)
	}
	big.Release()

	for i := 0; i < 4; i++ { // the pool may or may not hand back big; either must be clean
		s := Get(2)
		res, st, sigma := run(s)
		s.Release()
		if sigma != wantSigma || st != wantSt || len(res) != len(wantRes) {
			t.Fatalf("reused scratch: σ_UB %v stats %+v res %v; fresh: %v %+v %v", sigma, st, res, wantSigma, wantSt, wantRes)
		}
		for j := range res {
			if res[j] != wantRes[j] {
				t.Fatalf("reused scratch rank %d = %+v, fresh %+v", j, res[j], wantRes[j])
			}
		}
	}
}

func TestRefineStopsOnCancelAndBudget(t *testing.T) {
	store := lineStore(t, 10, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Get(3)
	collectLine(s, 0, []int{0, 1, 2, 3}, false)
	s.Filter(nil)
	_, _, err := s.Refine([]float64{0}, seqstore.WithContext(ctx, store), nil)
	s.Release()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled store read: err = %v, want Canceled", err)
	}

	g := lifecycle.NewGate(context.Background(), lifecycle.Limits{MaxExact: 2})
	s = Get(3)
	defer s.Release()
	collectLine(s, 0, []int{0, 1, 2, 3}, false)
	s.Filter(g)
	res, st, err := s.Refine([]float64{0}, store, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || st.FullRetrievals != 2 || !g.Truncated() {
		t.Fatalf("MaxExact=2: res %v stats %+v truncated %v", res, st, g.Truncated())
	}
}
