package vptree

import (
	"testing"
	"testing/quick"

	"repro/internal/spectral"
)

func TestStaticTreeRejectsUpdates(t *testing.T) {
	fx := buildFixture(t, 20, 64, Options{Budget: 8}, 30)
	h, _ := spectral.FromValues(make([]float64, 64))
	if err := fx.tree.Insert(h, 999); err != ErrStatic {
		t.Errorf("Insert on static tree: %v", err)
	}
}

// A dynamic tree answers like brute force before and after inserts, and
// every inserted series is its own nearest neighbour.
func TestDynamicInsert(t *testing.T) {
	fx := buildFixture(t, 40, 128, Options{Budget: 10, Dynamic: true}, 31)
	c := newChurn(t, fx, 30, 128, 32)
	for _, q := range fx.queries {
		checkAgainstOracle(t, "built", fx, q, 3, searchWith(t, fx.tree, q, 3, 0, nil, fx.store))
	}
	for _, v := range c.pool {
		if err := c.insert(t, len(fx.values), v); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Len() != 70 {
		t.Fatalf("Len = %d, want 70", fx.tree.Len())
	}
	for _, q := range fx.queries {
		checkAgainstOracle(t, "grown", fx, q, 5, searchWith(t, fx.tree, q, 5, 0, nil, fx.store))
	}
	for id := 40; id < 70; id++ {
		got := searchWith(t, fx.tree, fx.values[id], 1, 0, nil, fx.store).res
		if len(got) != 1 || got[0].ID != id || got[0].Dist > 1e-9 {
			t.Errorf("inserted id %d: nearest neighbour of its own series is %v", id, got)
		}
	}
}

func TestDynamicInsertErrors(t *testing.T) {
	fx := buildFixture(t, 10, 64, Options{Budget: 10, Dynamic: true}, 32)
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
		fx := buildFixture(t, 25, 64, Options{Budget: 10, Dynamic: true}, seed)
		c := newChurn(t, fx, 25, 64, seed+1)
		for op, i := range c.rng.Perm(len(c.pool)) {
			if err := c.insert(t, len(fx.values), c.pool[i]); err != nil {
				t.Log(err)
				return false
			}
			if fx.tree.Len() != len(fx.values) {
				t.Logf("after %d inserts: Len %d vs %d series", op+1, fx.tree.Len(), len(fx.values))
				return false
			}
			q := fx.queries[op%len(fx.queries)]
			got, want := searchWith(t, fx.tree, q, 3, 0, nil, fx.store).res, c.oracle(t, q, 3)
			if len(got) == 0 || got[0].Dist != want[0].Dist {
				t.Logf("after %d inserts: nearest %v, brute force %v", op+1, got, want[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
