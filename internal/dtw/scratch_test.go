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

// searchK is an ungated SearchKLimited on a pooled Scratch.
func searchK(collection [][]float64, query []float64, r, k int) ([]Result, Stats, error) {
	s := Get()
	defer s.Release()
	res, st, _, err := s.SearchKLimited(collection, query, r, k, nil)
	return res, st, err
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

// refSearchK is the ungated cascade built from the reference pieces: the
// switch LB_Keogh, an (lb, index) sort, the strict cutoff and the reference
// DP under the k-th best distance. SearchKLimited must return its neighbours bit
// for bit and count the same work.
func refsearchK(collection [][]float64, query []float64, r, k int) ([]Result, Stats) {
	var st Stats
	env, _ := NewEnvelope(query, r)
	cands := make([]lbCand, 0, len(collection))
	for i, x := range collection {
		st.LBComputed++
		cands = append(cands, lbCand{idx: i, lb: refLBKeogh(env, x)})
	}
	slices.SortFunc(cands, func(a, b lbCand) int {
		if a.lb != b.lb {
			if a.lb < b.lb {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	var best []Result
	worst := math.Inf(1)
	for _, c := range cands {
		if len(best) >= k && c.lb > worst {
			break
		}
		st.FullDTW++
		d, abandoned := refDistance(collection[c.idx], query, r, worst)
		if abandoned {
			st.Abandoned++
			continue
		}
		best = append(best, Result{Index: c.idx, Dist: d})
		slices.SortStableFunc(best, func(a, b Result) int {
			switch {
			case a.Dist < b.Dist || (a.Dist == b.Dist && a.Index < b.Index):
				return -1
			case a.Dist == b.Dist && a.Index == b.Index:
				return 0
			}
			return 1
		})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			worst = best[k-1].Dist
		}
	}
	return best, st
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

// The cascade's work counters and answers on a pinned corpus. The Stats and
// neighbour indexes are the ones the full-row kernel and the switch LB_Keogh
// produced at the commit before the banded kernel; distances are compared
// bit for bit with the reference cascade.
func TestSearchStatsPinned(t *testing.T) {
	coll, queries := pinnedCorpus()
	pinned := []struct {
		query, k int
		st       Stats
		idx      []int
	}{
		{0, 1, Stats{120, 118, 113}, []int{54}},
		{0, 5, Stats{120, 119, 106}, []int{54, 36, 72, 76, 108}},
		{1, 1, Stats{120, 3, 1}, []int{38}},
		{1, 5, Stats{120, 6, 0}, []int{38, 84, 2, 61, 106}},
		{2, 1, Stats{120, 116, 113}, []int{36}},
		{2, 5, Stats{120, 117, 104}, []int{36, 9, 90, 99, 15}},
		{3, 1, Stats{120, 6, 5}, []int{41}},
		{3, 5, Stats{120, 119, 114}, []int{41, 68, 11, 113, 33}},
	}
	for _, p := range pinned {
		got, st, err := searchK(coll, queries[p.query], 7, p.k)
		if err != nil {
			t.Fatal(err)
		}
		if st != p.st {
			t.Errorf("query %d k=%d: stats %+v, pinned %+v", p.query, p.k, st, p.st)
		}
		want, wantSt := refsearchK(coll, queries[p.query], 7, p.k)
		if st != wantSt {
			t.Errorf("query %d k=%d: stats %+v, reference cascade %+v", p.query, p.k, st, wantSt)
		}
		if len(got) != len(p.idx) || len(got) != len(want) {
			t.Fatalf("query %d k=%d: %d results, pinned %d, reference %d", p.query, p.k, len(got), len(p.idx), len(want))
		}
		for i := range got {
			if got[i].Index != p.idx[i] || got[i].Index != want[i].Index || !sameBits(got[i].Dist, want[i].Dist) {
				t.Errorf("query %d k=%d rank %d: %+v, pinned index %d, reference %+v", p.query, p.k, i, got[i], p.idx[i], want[i])
			}
		}
	}
}

// A distance draws its DP rows from the pool and a search everything but
// its result, so neither allocates in proportion to n, r or the collection.
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
	search := func() {
		if _, _, err := searchK(coll, queries[0], 7, 5); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if allocs := testing.AllocsPerRun(20, search); allocs > 1 {
		t.Errorf("SearchK allocates %.0f objects in steady state, want only its result", allocs)
	}
}

// Pool poisoning: a wide-band search over a long collection leaves large,
// dirty buffers in the pooled scratch; a narrow search that reuses them
// answers exactly as one that starts from an empty pool.
func TestScratchReuseIsClean(t *testing.T) {
	coll, queries := pinnedCorpus()
	short := make([][]float64, 9)
	for i := range short {
		short[i] = coll[i][:40:40]
	}
	narrow := func() ([]Result, Stats) {
		res, st, err := searchK(short, queries[1][:40:40], 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	// Two collections empty every sync.Pool, victim cache included.
	runtime.GC()
	runtime.GC()
	want, wantSt := narrow()

	s := Get()
	rows := s.Collection(len(coll))
	for _, x := range coll {
		rows = append(rows, x)
	}
	if _, _, _, err := s.SearchKLimited(rows, queries[0], 100, len(coll), nil); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if rows = rows[:cap(rows)]; rows[0] != nil || rows[len(rows)-1] != nil {
		t.Error("Release must drop the collection's row views")
	}

	got, gotSt := narrow()
	if gotSt != wantSt || len(got) != len(want) {
		t.Fatalf("after a large search: %+v %+v, from an empty pool %+v %+v", got, gotSt, want, wantSt)
	}
	for i := range got {
		if got[i].Index != want[i].Index || !sameBits(got[i].Dist, want[i].Dist) {
			t.Fatalf("rank %d after a large search: %+v, from an empty pool %+v", i, got[i], want[i])
		}
	}
}
