package vptree

import (
	"math"
	"sync/atomic"

	"repro/internal/spectral"
)

// flatNode is one tree node in the flat (index-linked, pointer-free) mirror
// of the build tree. Internal nodes reference children by slice index; leaf
// nodes reference a contiguous [leafLo, leafHi) range of leafIDs/leafRefs,
// so a whole leaf is evaluated with one batched kernel call over a
// contiguous refs slice instead of one interface call per entry.
type flatNode struct {
	median float64
	vpID   int
	vpRef  int32
	// left/right are node indices (-1: none); meaningful on internal nodes.
	left, right int32
	// leafLo >= 0 marks a leaf with entries leafIDs[leafLo:leafHi].
	leafLo, leafHi int32
	// leafBlocks counts the leaf nodes in this subtree (itself included when
	// it is a leaf) — the unit of the blocks-pruned kernel counter.
	leafBlocks int32
	vpDeleted  bool
}

// flatIndex is the cache-friendly mirror of a Tree used by the search hot
// path: every node lives in one slice, every leaf's entries are contiguous,
// and every compressed feature is packed into a structure-of-arrays
// spectral.Arena. The pointer tree remains the source of truth for build,
// explain and persistence; the flat index is rebuilt from it (rebuildFlat)
// whenever the structure or feature table changes.
type flatIndex struct {
	nodes    []flatNode
	leafIDs  []int
	leafRefs []int32
	arena    *spectral.Arena
	// src is the exact feature table the arena was packed from; covers
	// compares against it so a search with a *different* FeatureSource (disk
	// features, a test double) falls back to the pointer path.
	src MemoryFeatures
	// maxLeaf is the largest leaf block, sizing the per-search bound buffers.
	maxLeaf int
}

// kernelCounters accumulates flat-kernel work across searches. They are
// tree-lifetime totals (exposed via KernelStats), deliberately separate from
// the per-search Stats struct so existing pointer-vs-flat Stats equality
// holds exactly.
type kernelCounters struct {
	searches     atomic.Int64
	blocks       atomic.Int64
	evals        atomic.Int64
	blocksPruned atomic.Int64
}

// KernelStats is a snapshot of the flat-path kernel counters: how many
// searches took the flat path, how many leaf blocks ran through the batched
// kernel, how many bound evaluations those blocks contained, and how many
// leaf blocks were pruned away without being evaluated.
type KernelStats struct {
	FlatSearches int64 `json:"flat_searches"`
	LeafBlocks   int64 `json:"leaf_blocks"`
	KernelEvals  int64 `json:"kernel_evals"`
	BlocksPruned int64 `json:"blocks_pruned"`
	// MaxBlock is the largest leaf block in the current flat index (0 when
	// the flat path is unavailable).
	MaxBlock int `json:"max_block"`
}

// KernelStats returns the tree's cumulative flat-kernel counters.
func (t *Tree) KernelStats() KernelStats {
	ks := KernelStats{
		FlatSearches: t.kernels.searches.Load(),
		LeafBlocks:   t.kernels.blocks.Load(),
		KernelEvals:  t.kernels.evals.Load(),
		BlocksPruned: t.kernels.blocksPruned.Load(),
	}
	if t.flat != nil {
		ks.MaxBlock = t.flat.maxLeaf
	}
	return ks
}

// FlatEnabled reports whether the tree currently has a flat index (searches
// against the in-memory feature table take the batched kernel path).
func (t *Tree) FlatEnabled() bool { return t.flat != nil }

// rebuildFlat re-derives the flat index from the pointer tree and the
// current feature table. Callers must hold whatever lock protects the tree
// against concurrent searches (the engine rebuilds under its write lock).
// On any failure — mixed feature table, NoFlatKernels — the flat index is
// simply dropped and searches fall back to the pointer path.
func (t *Tree) rebuildFlat() {
	t.flat = nil
	if t.opts.NoFlatKernels || t.root == nil || len(t.features) == 0 {
		return
	}
	arena, err := spectral.NewArena(t.features)
	if err != nil {
		return
	}
	f := &flatIndex{arena: arena, src: t.features}
	f.nodes = make([]flatNode, 0, 2*t.n)
	f.flatten(t.root)
	t.flat = f
}

// flatten appends nd's subtree in DFS pre-order and returns its node index.
func (f *flatIndex) flatten(nd *node) int32 {
	if nd == nil {
		return -1
	}
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, flatNode{}) // reserve; children append after
	fn := flatNode{
		median: nd.median, vpID: nd.vpID, vpRef: int32(nd.vpRef),
		vpDeleted: nd.vpDeleted, left: -1, right: -1, leafLo: -1, leafHi: -1,
	}
	if nd.leaf != nil {
		fn.leafLo = int32(len(f.leafIDs))
		for _, e := range nd.leaf {
			f.leafIDs = append(f.leafIDs, e.id)
			f.leafRefs = append(f.leafRefs, int32(e.ref))
		}
		fn.leafHi = int32(len(f.leafIDs))
		fn.leafBlocks = 1
		if m := int(fn.leafHi - fn.leafLo); m > f.maxLeaf {
			f.maxLeaf = m
		}
	} else {
		fn.left = f.flatten(nd.left)
		fn.right = f.flatten(nd.right)
		if fn.left >= 0 {
			fn.leafBlocks += f.nodes[fn.left].leafBlocks
		}
		if fn.right >= 0 {
			fn.leafBlocks += f.nodes[fn.right].leafBlocks
		}
	}
	f.nodes[i] = fn
	return i
}

// covers reports whether feats is exactly the feature table this flat index
// was packed from. Identity (not just equal length) matters: the arena holds
// a copy of the coefficients, so a caller substituting a different source —
// DiskFeatures, or a test double with altered features — must get the
// pointer path, which consults feats itself.
func (f *flatIndex) covers(feats FeatureSource) bool {
	mf, ok := feats.(MemoryFeatures)
	if !ok || len(mf) != len(f.src) {
		return false
	}
	return len(mf) == 0 || &mf[0] == &f.src[0]
}

// visitFlat is the flat-path twin of searcher.visit: identical traversal
// order, identical gate accounting (one Visit per node), identical Stats —
// only the bound evaluations run through the arena's batched kernel, whole
// leaf blocks at a time. Bit-identical kernel results (see spectral.Arena)
// make every σ_UB update and prune decision match the pointer path exactly.
func (s *searcher) visitFlat(f *flatIndex, ni int32) error {
	if ni < 0 {
		return nil
	}
	if ok, err := s.g.Visit(); err != nil {
		return err
	} else if !ok {
		return nil
	}
	s.st.NodesVisited++
	nd := &f.nodes[ni]
	if nd.leafLo >= 0 {
		if !s.g.Leaf() {
			return nil // ng leaf budget exhausted: stop collecting, keep best-so-far
		}
		m := int(nd.leafHi - nd.leafLo)
		if m == 0 {
			return nil
		}
		refs := f.leafRefs[nd.leafLo:nd.leafHi]
		if err := f.arena.BoundsBlock(s.ctx, refs, !s.t.opts.PaperBounds, s.lbBuf, s.ubBuf); err != nil {
			return err
		}
		s.st.BoundsComputed += m
		s.kBlocks++
		s.kEvals += int64(m)
		for i := 0; i < m; i++ {
			s.Add(f.leafIDs[int(nd.leafLo)+i], s.lbBuf[i], s.ubBuf[i])
		}
		return nil
	}
	lb, ub, err := f.arena.BoundsAt(s.ctx, int(nd.vpRef), !s.t.opts.PaperBounds)
	if err != nil {
		return err
	}
	s.st.BoundsComputed++
	s.kEvals++
	if !nd.vpDeleted {
		s.Add(nd.vpID, lb, ub)
	}

	switch {
	case s.ubPrune(ub, nd.median):
		s.st.UBPrunes++
		s.pruneBlocks(f, nd.right)
		return s.visitFlat(f, nd.left)
	case s.lbPrune(lb, nd.median):
		s.st.LBPrunes++
		s.pruneBlocks(f, nd.left)
		return s.visitFlat(f, nd.right)
	default:
		first, second := nd.left, nd.right
		secondIsRight := true
		if !s.t.opts.NoGuidedDescent {
			overlapLeft := math.Min(ub, nd.median) - lb
			overlapRight := ub - math.Max(lb, nd.median)
			if overlapRight > overlapLeft {
				first, second = nd.right, nd.left
				secondIsRight = false
				s.st.GuidedDescentHits++
			}
		}
		if err := s.visitFlat(f, first); err != nil {
			return err
		}
		// Re-check prunability of the second child with the tightened σ_UB.
		if secondIsRight && s.ubPrune(ub, nd.median) {
			s.st.UBPrunes++
			s.pruneBlocks(f, second)
			return nil
		}
		if !secondIsRight && s.lbPrune(lb, nd.median) {
			s.st.LBPrunes++
			s.pruneBlocks(f, second)
			return nil
		}
		return s.visitFlat(f, second)
	}
}

// pruneBlocks credits a subtree prune with the leaf blocks it skipped.
func (s *searcher) pruneBlocks(f *flatIndex, ni int32) {
	if ni >= 0 {
		s.kBlocksPruned += int64(f.nodes[ni].leafBlocks)
	}
}

// flushKernelCounters folds one flat search's local counters into the
// tree-lifetime atomics (one Add per counter per search, not per block).
func (s *searcher) flushKernelCounters() {
	s.t.kernels.searches.Add(1)
	s.t.kernels.blocks.Add(s.kBlocks)
	s.t.kernels.evals.Add(s.kEvals)
	s.t.kernels.blocksPruned.Add(s.kBlocksPruned)
}
