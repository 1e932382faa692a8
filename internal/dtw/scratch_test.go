package dtw

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/israce"
	"repro/internal/querylog"
	"repro/internal/series"
)

// Distance returns the DTW distance between a and b under a Sakoe–Chiba
// band of radius r, never abandoning: the brute-force side of the tests.
func Distance(a, b []float64, r int) (float64, error) {
	d, _, err := distanceEarlyAbandon(a, b, r, math.Inf(1))
	return d, err
}

// distanceEarlyAbandon runs the DTW kernel on a pooled Scratch: it gives
// up once every entry of the current DP row exceeds bound², returning
// (+Inf, true, nil).
func distanceEarlyAbandon(a, b []float64, r int, bound float64) (float64, bool, error) {
	s := Get()
	defer s.Release()
	return s.distance(a, b, r, bound)
}

// NewEnvelope computes the band envelope of q:
// Upper[i] = max(q[i−r .. i+r]), Lower[i] = min(q[i−r .. i+r]).
func NewEnvelope(q []float64, r int) (*Envelope, error) {
	e := new(Envelope)
	if err := e.fill(q, r); err != nil {
		return nil, err
	}
	return e, nil
}

// UpperBound returns the Euclidean distance, a linear-cost upper bound on
// DTW (the diagonal is always a legal warping path).
func UpperBound(a, b []float64) (float64, error) {
	return series.Euclidean(a, b)
}

// A distance draws its DP rows from the pool and a search's envelope and
// row slots come from the same Scratch, so neither allocates in proportion to
// n, r or the rows measured.
func TestSteadyStateAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	coll, queries := pinnedCorpus()
	a, b := coll[0], coll[1]
	bound, err := Distance(a, b, 7) // also sizes the pooled scratch
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := distanceEarlyAbandon(a, b, 7, bound); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DistanceEarlyAbandon allocates %.0f objects in steady state, want 0", allocs)
	}
	lbs, ds := make([]float64, len(coll)), make([]float64, len(coll))
	search := func() { measureAll(t, coll, queries[0], 7, lbs, ds) }
	search()
	if allocs := testing.AllocsPerRun(20, search); allocs != 0 {
		t.Errorf("bounding and measuring %d rows allocates %.0f objects in steady state, want 0", len(coll), allocs)
	}
}

// measureAll runs what a search runs on a pooled Scratch: q at radius r
// as the query, every row of coll kept in a slot, bounded by LowerBound and
// measured by Distance under the smallest distance so far. It fills lbs and
// ds with the bounds and distances (+Inf where a row abandoned).
func measureAll(t *testing.T, coll [][]float64, q []float64, r int, lbs, ds []float64) {
	t.Helper()
	s := Get()
	defer s.Release()
	if err := s.Query(q, r); err != nil {
		t.Fatal(err)
	}
	rows := s.Rows(len(coll))
	for i, x := range coll {
		lb, err := s.LowerBound(x)
		if err != nil {
			t.Fatal(err)
		}
		rows[i], lbs[i] = x, lb
	}
	best := math.Inf(1)
	for i := range coll {
		d, _, err := s.Distance(rows[i], best)
		if err != nil {
			t.Fatal(err)
		}
		best, ds[i] = min(best, d), d
	}
}

func pinnedCorpus() (coll, queries [][]float64) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 41)
	for _, s := range querylog.StandardizeAll(g.Dataset(120)) {
		coll = append(coll, s.Values)
	}
	for _, s := range querylog.StandardizeAll(g.Queries(4)) {
		queries = append(queries, s.Values)
	}
	return coll, queries
}

// Pool poisoning: a wide-band search over a long collection leaves large,
// dirty buffers in the pooled scratch; a narrow search that reuses them
// measures exactly what one that starts from an empty pool does, and the
// large search's Release dropped its query and row views.
func TestScratchReuseIsClean(t *testing.T) {
	coll, queries := pinnedCorpus()
	short := make([][]float64, 9)
	for i := range short {
		short[i] = coll[i][:40:40]
	}
	narrow := func() (lbs, ds []float64) {
		lbs, ds = make([]float64, len(short)), make([]float64, len(short))
		measureAll(t, short, queries[1][:40:40], 1, lbs, ds)
		return lbs, ds
	}
	// Two collections empty every sync.Pool, victim cache included.
	runtime.GC()
	runtime.GC()
	wantLB, wantD := narrow()

	s := Get()
	if err := s.Query(queries[0], 100); err != nil {
		t.Fatal(err)
	}
	rows := s.Rows(len(coll))
	for i, x := range coll {
		rows[i] = x
		if _, err := s.LowerBound(x); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Distance(x, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Release()
	if rows = rows[:cap(rows)]; rows[0] != nil || rows[len(rows)-1] != nil || s.q != nil {
		t.Error("Release must drop the query and the row views")
	}

	gotLB, gotD := narrow()
	if !slices.EqualFunc(gotLB, wantLB, sameBits) || !slices.EqualFunc(gotD, wantD, sameBits) {
		t.Fatalf("after a large search: bounds %v distances %v, from an empty pool %v %v", gotLB, gotD, wantLB, wantD)
	}
}
