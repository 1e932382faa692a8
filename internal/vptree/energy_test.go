package vptree

import (
	"math"
	"testing"

	"repro/internal/querylog"
	"repro/internal/spectral"
)

// The §8 extension: a tree of variable-size (energy-capped) representations
// must still answer exactly.
func TestEnergyFractionTreeExact(t *testing.T) {
	fx := buildFixture(t, 100, 128, Options{EnergyFraction: 0.9}, 40)
	for qi, q := range fx.queries {
		want := bruteKNN(t, fx.values, q, 3)
		got, st, err := fx.tree.Search(q, 3, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("query %d rank %d: %v vs %v", qi, i, got[i].Dist, want[i].Dist)
			}
		}
		if st.BoundsComputed == 0 {
			t.Error("no bounds computed")
		}
	}
	// Representation sizes should actually vary across objects.
	sizes := map[int]bool{}
	for _, c := range fx.tree.Features() {
		sizes[len(c.Positions)] = true
	}
	if len(sizes) < 3 {
		t.Errorf("energy compression produced only %d distinct sizes", len(sizes))
	}
}

// Smooth (periodic) series should get far smaller representations than
// noise at the same captured energy.
func TestEnergyFractionAdaptsToContent(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 512, 41)
	periodic := g.Exemplar(querylog.Cinema).Standardized()
	noise := g.Exemplar(querylog.WhiteNoiseName).Standardized()
	hp, err := spectral.FromValues(periodic.Values)
	if err != nil {
		t.Fatal(err)
	}
	hn, err := spectral.FromValues(noise.Values)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := spectral.CompressEnergy(hp, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := spectral.CompressEnergy(hn, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Positions)*2 >= len(cn.Positions) {
		t.Errorf("periodic needs %d coeffs, noise %d — expected periodic << noise",
			len(cp.Positions), len(cn.Positions))
	}
}

func TestEnergyFractionWithDynamicInsert(t *testing.T) {
	fx := buildFixture(t, 10, 64, Options{EnergyFraction: 0.85, Dynamic: true}, 42)
	c := newChurn(t, fx, 10, 64, 43)
	for _, v := range c.pool {
		if err := c.insert(t, len(fx.values), v); err != nil {
			t.Fatal(err)
		}
	}
	q := fx.queries[0]
	checkAgainstOracle(t, "energy+dynamic", fx, q, 1, searchWith(t, fx.tree, q, 1, 0, nil, fx.store))
}
