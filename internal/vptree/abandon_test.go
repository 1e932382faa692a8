package vptree

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

// finishEveryBound is the leaf cut that abandons nothing: the only way to
// search without spectral.AbandonCut, and it exists only here.
func finishEveryBound(float64) float64 { return math.Inf(1) }

// report is everything a search lets a caller see: its answer, its counts and
// what it told the gate.
type report struct {
	outcome
	approximate bool
	boundFloor  float64
}

// searchCut runs one search of q under a fresh gate, with the leaf kernel's
// cut given by cut.
func searchCut(t *testing.T, tr *Tree, q []float64, k int, lim lifecycle.Limits, feats FeatureSource, store seqstore.Store, cut func(float64) float64) report {
	t.Helper()
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	g := lifecycle.NewGate(context.Background(), lim)
	var r report
	r.res, r.st, r.truncated, err = tr.search(pq, k, feats, store, g, cut)
	if err != nil {
		t.Fatal(err)
	}
	r.approximate, r.boundFloor = g.Approximate(), g.BoundFloor()
	return r
}

// checkAbandonInvisible asserts that the search as served — leaf bounds
// abandoned against σ_UB — reports exactly what a search that finishes every
// bound reports, and returns how many bounds the served one abandoned.
func checkAbandonInvisible(t *testing.T, label string, tr *Tree, q []float64, k int, lim lifecycle.Limits, feats FeatureSource, store seqstore.Store) int64 {
	t.Helper()
	before := tr.KernelStats().BoundsAbandoned
	served := searchCut(t, tr, q, k, lim, feats, store, spectral.AbandonCut)
	abandoned := tr.KernelStats().BoundsAbandoned - before
	full := searchCut(t, tr, q, k, lim, feats, store, finishEveryBound)
	if n := tr.KernelStats().BoundsAbandoned - before - abandoned; n != 0 {
		t.Fatalf("%s: a search with the cut at +Inf abandoned %d bounds", label, n)
	}
	if !reflect.DeepEqual(served, full) {
		t.Fatalf("%s: abandoning %d bounds changed what the search reports:\n served %+v\n full   %+v", label, abandoned, served, full)
	}
	return abandoned
}

// dials is every quality setting the invariance is asserted under.
var dials = []lifecycle.Limits{
	{}, {Epsilon: 0.05}, {Epsilon: 0.25}, {Delta: 0.5}, {Epsilon: 0.05, Delta: 0.5}, {Epsilon: 0.25, Delta: 0.5},
}

// Abandoning a leaf bound is invisible: results, Stats, truncation and what
// the gate is told equal those of a search that finishes every bound — over
// the seeded corpora of the golden files, under every node budget and quality
// dial, whichever source the bounds come from, and after the index has been
// inserted into and repacked. And it is not vacuous: searches through the
// arena do abandon.
func TestSearchInvariantToAbandon(t *testing.T) {
	var abandoned int64
	trialCorpus(t, func(trial int, fx *fixture, q []float64, k int) {
		label := fmt.Sprintf("trial %d", trial)
		abandoned += checkAbandonInvisible(t, label, fx.tree, q, k, dials[trial%len(dials)], fx.tree.Features(), fx.store)
		if trial%10 == 0 {
			if n := checkAbandonInvisible(t, label+" (disk features)", fx.tree, q, k, lifecycle.Limits{}, diskCopy(t, fx.tree), fx.store); n != 0 {
				t.Errorf("%s: %d bounds abandoned on features read from disk", label, n)
			}
		}
	})

	var disk *DiskFeatures
	budgetCorpus(t, func(fx *fixture, maxNodes, qi int, q []float64) {
		if disk == nil {
			disk = diskCopy(t, fx.tree)
		}
		substituted := slices.Clone(fx.tree.Features()) // equal features, not the arena's table
		for _, dial := range dials {
			lim := dial
			lim.MaxNodes = maxNodes
			label := fmt.Sprintf("max_nodes=%d q=%d ε=%v δ=%v", maxNodes, qi, lim.Epsilon, lim.Delta)
			abandoned += checkAbandonInvisible(t, label, fx.tree, q, 5, lim, fx.tree.Features(), fx.store)
			for name, feats := range map[string]FeatureSource{"disk": disk, "substituted": substituted} {
				if n := checkAbandonInvisible(t, label+" "+name, fx.tree, q, 5, lim, feats, fx.store); n != 0 {
					t.Errorf("%s: %d bounds abandoned on %s features", label, n, name)
				}
			}
		}
	})
	if abandoned == 0 {
		t.Error("no search through the arena abandoned a bound: the test compares a search with itself")
	}

	// A dynamic tree through inserts and repacks.
	const seqLen = 64
	fx := buildFixture(t, 60, seqLen, Options{Dynamic: true, LeafSize: 4, Seed: 5}, 29)
	c := newChurn(t, fx, 120, seqLen, 31)
	abandoned = 0
	for op, values := range c.pool {
		if err := c.insert(t, len(fx.values), values); err != nil {
			t.Fatal(err)
		}
		if op%8 != 7 {
			continue
		}
		dial := dials[(op/8)%len(dials)]
		for qi, q := range fx.queries {
			label := fmt.Sprintf("after %d inserts, q=%d, %+v", op+1, qi, dial)
			abandoned += checkAbandonInvisible(t, label, fx.tree, q, 5, dial, fx.tree.Features(), fx.store)
		}
	}
	if fx.tree.KernelStats().Repacks == 0 || abandoned == 0 {
		t.Errorf("dynamic tree: %d repacks, %d bounds abandoned; the test needs some of each", fx.tree.KernelStats().Repacks, abandoned)
	}
}
