package knn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/sketch"
	"repro/internal/spectral"
)

// prep prepares the one-element query {q}.
func prep(t *testing.T, q float64) *spectral.Prepared {
	t.Helper()
	p, err := spectral.Prepare([]float64{q})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

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
		res, st, err := s.Refine(prep(t, 4.5), store, nil)
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
		// Small integers sketch exactly, so ids 2, 1, 0 — refined last,
		// beyond the k-th best 1.5 — are rejected unread where they used to
		// be read and abandoned; the tie at 1.5 (id 3) is not.
		if st.FullRetrievals != 7 || st.ExactDistances != 7 || st.SketchSkips != 3 || st.EarlyAbandons != 0 {
			t.Errorf("disk=%v: stats %+v, want 7 reads and 3 sketch skips", disk, st)
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
	res, st, err := s.Refine(prep(t, 0), store, nil)
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
	res, _, err := s.Refine(prep(t, 0), store, nil)
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
	if res, _, err := s.Refine(prep(t, 0), store, nil); err != nil || res != nil {
		t.Fatalf("no candidates: got %v, %v; want nil, nil", res, err)
	}
	collectLine(s, 0, []int{2, 0, 1}, false)
	s.Filter(nil)
	res, _, err := s.Refine(prep(t, 0), store, nil)
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
		res, st, err := s.Refine(prep(t, 10), store, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, st, sigma
	}
	fresh := new(Scratch)
	fresh.k, fresh.sigmaUB, fresh.seed, fresh.seedLB = 2, math.Inf(1), math.Inf(1), math.Inf(1)
	wantRes, wantSt, wantSigma := run(fresh)

	big := Get(40)
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	collectLine(big, 0, ids, true)
	big.BoundBufs(32)
	big.Filter(nil)
	if _, _, err := big.Refine(prep(t, 0), store, nil); err != nil {
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
	_, _, err := s.Refine(prep(t, 0), seqstore.WithContext(ctx, store), nil)
	s.Release()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled store read: err = %v, want Canceled", err)
	}

	g := lifecycle.NewGate(context.Background(), lifecycle.Limits{MaxExact: 2})
	s = Get(3)
	defer s.Release()
	collectLine(s, 0, []int{0, 1, 2, 3}, false)
	s.Filter(g)
	res, st, err := s.Refine(prep(t, 0), store, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || st.FullRetrievals != 2 || !g.Truncated() {
		t.Fatalf("MaxExact=2: res %v stats %+v truncated %v", res, st, g.Truncated())
	}
}

// plainStore hides the backend's sketch (it has no Unwrap), so Refine over
// it reads every candidate it does not cut off — the refinement as it was
// before the store had a sketch.
type plainStore struct{ seqstore.Store }

// The sketch tier's contract at the Refine level: a skipped candidate is
// exactly one that would have been read and abandoned. Over random corpora
// with exact ties, duplicates of the query and an unsketchable row, with and
// without ε, the neighbours are bit-identical to the unsketched refinement
// and the skips account for every read spared — on every sketch kernel this
// machine can run.
func TestSketchSkipsOnlyWhatWouldAbandon(t *testing.T) {
	sketch.ForEachKernel(func(kernel string) {
		t.Run(kernel, sketchSkipsOnlyWhatWouldAbandon)
	})
}

func sketchSkipsOnlyWhatWouldAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 48
	skips := 0
	for trial := 0; trial < 200; trial++ {
		rows := 20 + rng.Intn(100)
		mem, err := seqstore.NewMemory(n)
		if err != nil {
			t.Fatal(err)
		}
		query := make([]float64, n)
		for i := range query {
			query[i] = math.Round(rng.NormFloat64()*16) / 16
		}
		data := make([][]float64, rows)
		for r := range data {
			row := make([]float64, n)
			for i := range row {
				// Sixteenths, so rows sketch exactly and distances tie.
				row[i] = query[i] + math.Round(rng.NormFloat64()*float64(1+r%7))/16
			}
			switch {
			case r%11 == 3:
				copy(row, query) // a duplicate of the query
			case r%13 == 5:
				copy(row, data[r-1]) // an exact tie with its neighbour
			case r == 9:
				row[rng.Intn(n)] = math.Inf(1) // unsketchable
			}
			data[r] = row
			if _, err := mem.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		q, err := spectral.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(12)
		eps := 0.0
		if trial%3 == 2 {
			eps = 0.3
		}
		run := func(store seqstore.Store) ([]Result, RefineStats, *lifecycle.Gate) {
			g := lifecycle.NewGate(context.Background(), lifecycle.Limits{Epsilon: eps})
			s := Get(k)
			defer s.Release()
			for id, row := range data {
				d, _ := series.Euclidean(query, row)
				if math.IsInf(d, 1) {
					s.Add(id, 0, math.Inf(1))
					continue
				}
				s.Add(id, d*rng.Float64(), d*(1+rng.Float64())) // sound, loose bounds
			}
			s.Filter(g)
			res, st, err := s.Refine(q, store, g)
			if err != nil {
				t.Fatal(err)
			}
			return res, st, g
		}
		// The same bounds on both sides: replay the generator.
		state := rng.Int63()
		rng.Seed(state)
		want, plain, gPlain := run(plainStore{mem})
		rng.Seed(state)
		got, sk, gSk := run(mem)
		if plain.SketchSkips != 0 {
			t.Fatalf("trial %d: the plain store skipped %d", trial, plain.SketchSkips)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d neighbours with the sketch, %d without", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("trial %d rank %d: %+v with the sketch, %+v without", trial, i, got[i], want[i])
			}
		}
		if sk.FullRetrievals+sk.SketchSkips != plain.FullRetrievals || sk.EarlyAbandons+sk.SketchSkips != plain.EarlyAbandons ||
			sk.CutoffSkips != plain.CutoffSkips {
			t.Fatalf("trial %d: stats %+v with the sketch, %+v without", trial, sk, plain)
		}
		if gSk.BoundFloor() != gPlain.BoundFloor() || gSk.Approximate() != gPlain.Approximate() {
			t.Fatalf("trial %d: the sketch moved the bound certificate: floor %v vs %v", trial, gSk.BoundFloor(), gPlain.BoundFloor())
		}
		skips += sk.SketchSkips
	}
	if skips == 0 {
		t.Fatal("200 trials never exercised the sketch")
	}
}

// cancelOnRead cancels a context at its first row read and lets Refine see
// through to the backend's sketch.
type cancelOnRead struct {
	seqstore.Store
	cancel context.CancelFunc
}

func (c cancelOnRead) Unwrap() seqstore.Store { return c.Store }

func (c cancelOnRead) Row(id int) ([]float64, error) {
	c.cancel()
	return c.Store.(seqstore.RowReader).Row(id)
}

// A run of sketch skips reads nothing, so the per-read context check never
// fires; the gate's amortized check still has to, within its stride.
func TestSketchSkipsObserveCancellation(t *testing.T) {
	store := lineStore(t, 200, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := lifecycle.NewGate(ctx, lifecycle.Limits{})
	s := Get(1)
	defer s.Release()
	for id := 0; id < 200; id++ {
		s.Add(id, float64(id)*1e-9, math.Inf(1)) // refined in id order; all pass the cutoff
	}
	s.Filter(g)
	// id 0 is read first (cancelling) and sets the k-th best to 0.5; every
	// later candidate is farther and a sketch skip.
	res, st, err := s.Refine(prep(t, -0.5), cancelOnRead{store, cancel}, g)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res %v err %v, want nil and Canceled", res, err)
	}
	if st.FullRetrievals != 1 || st.SketchSkips == 0 || st.SketchSkips > 8 {
		t.Fatalf("stats %+v: want 1 read and at most one gate stride (8) of skips before the abort", st)
	}
}

// MaxExact is spent only on rows actually measured, and is never exceeded.
func TestSketchSpendsNoExactBudget(t *testing.T) {
	store := lineStore(t, 100, false)
	g := lifecycle.NewGate(context.Background(), lifecycle.Limits{MaxExact: 3})
	s := Get(2)
	defer s.Release()
	// Refinement order 50, 52, then 99 down to 61, then 51 and 49. After 50
	// and 52 the k-th best is 2: the 39 far ids are skipped for free, which
	// leaves the third unit for 51; 49 ties with it, must be measured, and
	// finds the budget spent.
	s.Add(50, 0, math.Inf(1))
	s.Add(52, 1e-9, math.Inf(1))
	for id := 99; id > 60; id-- {
		s.Add(id, float64(102-id)*1e-9, math.Inf(1))
	}
	s.Add(51, 50e-9, math.Inf(1))
	s.Add(49, 51e-9, math.Inf(1))
	s.Filter(g)
	res, st, err := s.Refine(prep(t, 50), store, g)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRetrievals != 3 || st.ExactDistances != 3 || g.ExactDistances() != 3 || st.SketchSkips != 39 || st.BudgetSkips != 1 || !g.Truncated() {
		t.Fatalf("stats %+v gate exact %d truncated %v", st, g.ExactDistances(), g.Truncated())
	}
	if len(res) != 2 || res[0] != (Result{50, 0}) || res[1] != (Result{51, 1}) {
		t.Fatalf("got %v", res)
	}
}

// A seeded search keeps exactly its rows at or within the seed, however
// loose the bounds it collected them with: tight bounds drop the farther rows
// as they are added, loose ones leave them to the refine's sketch test and
// early abandon. The row at the seed itself is a tie and stays, and the
// search returns fewer than k rows rather than any beyond the seed.
func TestSeedBoundsTheWalkAndTheRefine(t *testing.T) {
	store := lineStore(t, 10, false)
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, tight := range []bool{true, false} {
		s := Get(5)
		s.Seed(3, 1)
		collectLine(s, 0, ids, tight)
		kept, dropped := s.Filter(nil)
		if tight && (kept != 4 || dropped != 6) {
			t.Errorf("tight bounds: Filter kept %d, dropped %d; want 4 and 6", kept, dropped)
		}
		res, _, err := s.Refine(prep(t, 0), store, nil)
		s.Release()
		if err != nil {
			t.Fatal(err)
		}
		want := []Result{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
		if len(res) != len(want) {
			t.Fatalf("tight=%v: got %v, want %v", tight, res, want)
		}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("tight=%v: got %v, want %v", tight, res, want)
			}
		}
	}
}

// The seed is a distance another search computed, and a row here at exactly
// that distance must survive. Its squared sum can round above the seed's
// square: for the row {1, 1.7609624449125756} and the query at the origin it
// does, so abandoning against the seed itself would drop the tie.
func TestSeedKeepsARowAtTheSeed(t *testing.T) {
	near, far := []float64{1, 1.7609624449125756}, []float64{3, 3}
	store, err := seqstore.NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{near, far} {
		if _, err := store.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	q, err := spectral.Prepare([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := series.Euclidean(q.Values(), near)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range near {
		sum += v * v
	}
	if !(seed*seed < sum) {
		t.Fatalf("seed² %v is not below the row's sum %v: the row no longer tests the rounding", seed*seed, sum)
	}
	s := Get(2)
	defer s.Release()
	s.Seed(seed, 2)
	s.Add(0, 0, math.Inf(1))
	s.Add(1, 0, math.Inf(1))
	s.Filter(nil)
	res, _, err := s.Refine(q, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != (Result{0, seed}) {
		t.Fatalf("got %v, want only the row at the seed {0 %v}", res, seed)
	}
}
