package vptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
)

// dynFixture builds a dynamic tree over the first `initial` series of a
// generated pool and keeps the rest for later inserts.
type dynFixture struct {
	store   *seqstore.Memory
	tree    *Tree
	values  map[int][]float64 // id in the tree -> values
	pool    [][]float64       // not yet inserted
	poolIDs []int
	queries [][]float64
}

func buildDynFixture(t testing.TB, initial, extra, seqLen int, seed int64) *dynFixture {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, seed)
	data := querylog.StandardizeAll(g.Dataset(initial + extra))
	qs := querylog.StandardizeAll(g.Queries(3))
	store, err := seqstore.NewMemory(seqLen)
	if err != nil {
		t.Fatal(err)
	}
	fx := &dynFixture{store: store, values: map[int][]float64{}}
	specs := make([]*spectral.HalfSpectrum, 0, initial)
	ids := make([]int, 0, initial)
	for i, s := range data {
		id, err := store.Append(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		if i < initial {
			h, err := spectral.FromValues(s.Values)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, h)
			ids = append(ids, id)
			fx.values[id] = s.Values
		} else {
			fx.pool = append(fx.pool, s.Values)
			fx.poolIDs = append(fx.poolIDs, id)
		}
	}
	fx.tree, err = Build(specs, ids, Options{Budget: 10, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		fx.queries = append(fx.queries, q.Values)
	}
	return fx
}

// verify checks that every query's kNN over the tree matches brute force
// over the series in it.
func (fx *dynFixture) verify(t *testing.T, k int) {
	t.Helper()
	for qi, q := range fx.queries {
		type pair struct {
			id int
			d  float64
		}
		var brute []pair
		for id, v := range fx.values {
			d, err := series.Euclidean(q, v)
			if err != nil {
				t.Fatal(err)
			}
			brute = append(brute, pair{id, d})
		}
		sort.Slice(brute, func(a, b int) bool { return brute[a].d < brute[b].d })
		kk := k
		if kk > len(brute) {
			kk = len(brute)
		}
		got, _, err := fx.tree.Search(q, k, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != kk {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), kk)
		}
		for i := 0; i < kk; i++ {
			if math.Abs(got[i].Dist-brute[i].d) > 1e-9 {
				t.Fatalf("query %d rank %d: %v vs brute %v", qi, i, got[i].Dist, brute[i].d)
			}
		}
	}
}

func TestStaticTreeRejectsUpdates(t *testing.T) {
	fx := buildFixture(t, 20, 64, Options{Budget: 8}, 30)
	h, _ := spectral.FromValues(make([]float64, 64))
	if err := fx.tree.Insert(h, 999); err != ErrStatic {
		t.Errorf("Insert on static tree: %v", err)
	}
}

func TestDynamicInsert(t *testing.T) {
	fx := buildDynFixture(t, 40, 30, 128, 31)
	fx.verify(t, 3)
	for i, v := range fx.pool {
		h, err := spectral.FromValues(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Insert(h, fx.poolIDs[i]); err != nil {
			t.Fatal(err)
		}
		fx.values[fx.poolIDs[i]] = v
	}
	if fx.tree.Len() != 70 {
		t.Fatalf("Len = %d, want 70", fx.tree.Len())
	}
	fx.verify(t, 5)
	// Every inserted series is its own nearest neighbour.
	for i, v := range fx.pool {
		got, _, err := fx.tree.Search(v, 1, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].ID != fx.poolIDs[i] || got[0].Dist > 1e-9 {
			t.Errorf("inserted id %d: nearest neighbour of its own series is %v", fx.poolIDs[i], got)
		}
	}
}

func TestDynamicInsertErrors(t *testing.T) {
	fx := buildDynFixture(t, 10, 1, 64, 32)
	wrong, _ := spectral.FromValues(make([]float64, 32))
	if err := fx.tree.Insert(wrong, 500); err != spectral.ErrMismatch {
		t.Errorf("wrong-length insert: %v", err)
	}
	h, _ := spectral.FromValues(fx.values[0])
	if err := fx.tree.Insert(h, 0); err != ErrDuplicateID {
		t.Errorf("duplicate insert: %v", err)
	}
}

// Property: inserts in any order keep search exact after every one of them.
func TestDynamicWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		fx := buildDynFixture(t, 25, 25, 64, seed)
		rng := rand.New(rand.NewSource(seed))
		for op, i := range rng.Perm(len(fx.pool)) {
			v, id := fx.pool[i], fx.poolIDs[i]
			h, err := spectral.FromValues(v)
			if err != nil {
				return false
			}
			if err := fx.tree.Insert(h, id); err != nil {
				t.Log(err)
				return false
			}
			fx.values[id] = v
			if fx.tree.Len() != len(fx.values) {
				t.Logf("after %d inserts: Len %d vs %d series", op+1, fx.tree.Len(), len(fx.values))
				return false
			}
			// Exactness after the insert.
			q := fx.queries[op%len(fx.queries)]
			got, _, err := fx.tree.Search(q, 3, fx.tree.Features(), fx.store)
			if err != nil {
				t.Log(err)
				return false
			}
			bestD := math.Inf(1)
			for _, v := range fx.values {
				d, _ := series.Euclidean(q, v)
				if d < bestD {
					bestD = d
				}
			}
			if len(got) == 0 || math.Abs(got[0].Dist-bestD) >= 1e-9 {
				t.Logf("after %d inserts: nearest %v, brute force %v", op+1, got, bestD)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
