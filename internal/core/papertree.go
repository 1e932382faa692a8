package core

import (
	"fmt"

	"repro/internal/knn"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// Tree is the paper's VP-tree (§4) over the engine's stored rows at its
// budget, for instrumentation that measures the tree itself: no search, Add
// or command of the engine reads it. The first call builds it, from the rows
// stored then (a later Add is not in it), and every call returns that tree;
// any goroutine may call it.
func (e *Engine) Tree() *vptree.Tree {
	e.treeOnce.Do(func() {
		specs, ids := make([]*spectral.HalfSpectrum, e.store.Len()), make([]int, e.store.Len())
		var err error
		for id := 0; id < len(specs) && err == nil; id++ {
			var z []float64
			if z, err = e.store.Get(id); err == nil {
				specs[id], err = spectral.FromValues(z)
			}
			ids[id] = id
		}
		if err == nil {
			e.tree, err = vptree.Build(specs, ids, vptree.Options{Budget: e.cfg.Budget, BuildWorkers: e.cfg.Workers})
		}
		if err != nil {
			panic(fmt.Sprintf("core: building the paper's tree: %v", err))
		}
	})
	return e.tree
}

// Features is the feature table of Tree.
func (e *Engine) Features() vptree.FeatureSource { return e.Tree().Features() }

// ScanTotals returns the engine's similarity-search work since it was built
// or loaded: the searches, the blocks and bounds their scans ran the kernel
// on, and the bounds it abandoned unfinished (see knn.Scan).
func (e *Engine) ScanTotals() knn.ScanTotals { return e.scans.Load() }
