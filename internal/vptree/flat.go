package vptree

import (
	"math"
	"sync/atomic"

	"repro/internal/knn"
	"repro/internal/lifecycle"
	"repro/internal/spectral"
)

// flatNode is one tree node. Internal nodes reference their children by
// index into flatIndex.nodes; leaf nodes reference a contiguous
// [leafLo, leafHi) range of leafIDs/leafSlots, so a whole leaf is evaluated
// with one batched kernel call over a contiguous slice of slots.
type flatNode struct {
	median float64
	vpID   int
	vpSlot int32 // the vantage point's slot (see flatIndex.slotRef)
	// left/right are node indices; meaningful on internal nodes.
	left, right int32
	// leafLo >= 0 marks a leaf with entries leafIDs[leafLo:leafHi]. The range
	// is the leaf's own up to leafCap, so an insert writes the next entry at
	// leafHi while leafHi < leafCap (inplace.go); packed leaves have no room.
	leafLo, leafHi, leafCap int32
	// leafBlocks counts the leaf nodes in this subtree (itself included when
	// it is a leaf) — the unit of the blocks-pruned kernel counter.
	leafBlocks int32
}

// flatIndex is the tree — the one structure search and insert work on:
// every node lives in one slice, every leaf's entries are contiguous, and
// every compressed feature the tree refers to is packed into a
// structure-of-arrays spectral.Arena.
//
// Features are numbered by slot: their position in the DFS pre-order the
// nodes are in — each vantage point, then its subtree, a leaf's entries in
// consecutive slots — which is the order a search evaluates bounds in. The
// arena is packed by slot, so a search that descends reads nodes, leaf
// entries and arena forwards; the feature table keeps its own order (ref =
// the order objects were added in), which the walk would hop around in.
// That is how layout leaves things. An insert takes the next slot, a split
// appends its nodes and a leaf out of room moves to the end of
// leafIDs/leafSlots, none of which a search can tell from the packed layout
// except by its speed; when enough has piled up the index is laid out afresh
// (repackIfStale).
type flatIndex struct {
	nodes     []flatNode
	leafIDs   []int
	leafSlots []int32
	// slotRef[s] is the feature-table ref of slot s. Only a search whose
	// bounds do not come from the arena reads it.
	slotRef []int32
	arena   *spectral.Arena
	// maxLeaf is the largest leaf block since the index was laid out, sizing
	// the per-search bound buffers (a split does not lower it).
	maxLeaf int
	// packed is how many slots layout numbered — the prefix in walk order;
	// abandoned counts the leafIDs/leafSlots ranges a relocated or split leaf
	// left behind.
	packed, abandoned int
}

// kernelCounters accumulates traversal work across searches: tree-lifetime
// totals (exposed via KernelStats), separate from the per-search Stats.
type kernelCounters struct {
	searches     atomic.Int64
	blocks       atomic.Int64
	evals        atomic.Int64
	abandoned    atomic.Int64
	blocksPruned atomic.Int64
}

// KernelStats is a snapshot of the tree-lifetime traversal counters: how
// many searches ran, how many leaf blocks they evaluated, how many bound
// evaluations they made (vantage points and leaf entries), how many of those
// the kernel abandoned unfinished, and how many leaf blocks were pruned away
// without being evaluated.
type KernelStats struct {
	FlatSearches int64 `json:"flat_searches"`
	LeafBlocks   int64 `json:"leaf_blocks"`
	KernelEvals  int64 `json:"kernel_evals"`
	// BoundsAbandoned counts the leaf entries whose bound stopped early
	// because its partial sum was already past σ_UB (spectral.BoundsBlockCut).
	// They are part of KernelEvals, as of Stats.BoundsComputed: an abandoned
	// bound is a bound evaluated, only not to the end.
	BoundsAbandoned int64 `json:"bounds_abandoned"`
	BlocksPruned    int64 `json:"blocks_pruned"`
	// MaxBlock is the largest leaf block the flat index has held since it was
	// last laid out.
	MaxBlock int `json:"max_block"`
	// Repacks counts the fresh layouts that Insert has triggered
	// (see repackDen). OutOfOrder is what the next one will clear: the slots
	// inserts appended past the walk-ordered prefix.
	Repacks    int `json:"repacks"`
	OutOfOrder int `json:"out_of_order"`
}

// KernelStats returns the tree's cumulative traversal counters, and the state
// of its flat index as of the last Insert (read it under the lock that keeps
// inserts out).
func (t *Tree) KernelStats() KernelStats {
	return KernelStats{
		FlatSearches:    t.kernels.searches.Load(),
		LeafBlocks:      t.kernels.blocks.Load(),
		KernelEvals:     t.kernels.evals.Load(),
		BoundsAbandoned: t.kernels.abandoned.Load(),
		BlocksPruned:    t.kernels.blocksPruned.Load(),
		MaxBlock:        t.flat.maxLeaf,
		Repacks:         t.repacks,
		OutOfOrder:      t.flat.outOfOrder(),
	}
}

// layout lays out the tree walk describes as a flat index in walk order:
// nodes in DFS pre-order, each leaf's entries contiguous, slots numbered as
// they are met, and the arena packed by slot from features. Build and the
// repack both end in it. It fails only where the arena refuses the walk: a
// feature it names twice, or features that do not share one representation.
func layout(walk []step, features MemoryFeatures) (*flatIndex, error) {
	// Sized so that place appends without growing: a slot is a distinct
	// feature, and a tree without empty leaves has no more nodes than slots.
	slots := len(features)
	f := &flatIndex{
		nodes:     make([]flatNode, 1, slots),
		leafIDs:   make([]int, 0, slots),
		leafSlots: make([]int32, 0, slots),
		slotRef:   make([]int32, 0, slots),
	}
	f.place(0, walk, false)
	f.packed = len(f.slotRef)
	var err error
	f.arena, err = spectral.NewArenaOrdered(features, f.slotRef)
	return f, err
}

// place writes the subtree walk starts with into node i, which exists, and
// appends the rest of it: leaf entries at the end of leafIDs/leafSlots, child
// nodes in DFS pre-order at the end of nodes. It returns the walk past the
// subtree. The walk names features by ref, each given the next slot, unless
// numbered says its refs are slots already (a split leaf's, inplace.go).
func (f *flatIndex) place(i int32, walk []step, numbered bool) []step {
	slot := func(ref int) int32 {
		if numbered {
			return int32(ref)
		}
		f.slotRef = append(f.slotRef, int32(ref))
		return int32(len(f.slotRef) - 1)
	}
	s, walk := walk[0], walk[1:]
	fn := flatNode{median: s.median, vpID: s.id, leafLo: -1, leafHi: -1}
	if s.leaf >= 0 {
		fn.leafLo = int32(len(f.leafIDs))
		for _, e := range walk[:s.leaf] {
			f.leafIDs = append(f.leafIDs, e.id)
			f.leafSlots = append(f.leafSlots, slot(e.ref))
		}
		walk = walk[s.leaf:]
		fn.leafHi = int32(len(f.leafIDs))
		fn.leafCap = fn.leafHi
		fn.leafBlocks = 1
		f.maxLeaf = max(f.maxLeaf, s.leaf)
	} else {
		fn.vpSlot = slot(s.ref)
		fn.left, walk = f.child(walk, numbered)
		fn.right, walk = f.child(walk, numbered)
		fn.leafBlocks = f.nodes[fn.left].leafBlocks + f.nodes[fn.right].leafBlocks
	}
	f.nodes[i] = fn
	return walk
}

// child appends the subtree walk starts with as a new node, and returns its
// index and the walk past it.
func (f *flatIndex) child(walk []step, numbered bool) (int32, []step) {
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, flatNode{}) // reserve; the subtree appends after
	return i, f.place(i, walk, numbered)
}

// walk is the tree in DFS pre-order, read off the nodes: what a repack lays
// out afresh.
func (f *flatIndex) walk() []step {
	return f.appendWalk(make([]step, 0, len(f.nodes)+len(f.slotRef)), 0)
}

// appendWalk appends the walk of node ni's subtree to dst.
func (f *flatIndex) appendWalk(dst []step, ni int32) []step {
	fn := &f.nodes[ni]
	if fn.leafLo >= 0 {
		dst = append(dst, step{leaf: int(fn.leafHi - fn.leafLo)})
		for j := fn.leafLo; j < fn.leafHi; j++ {
			dst = append(dst, step{id: f.leafIDs[j], ref: int(f.slotRef[f.leafSlots[j]])})
		}
		return dst
	}
	dst = append(dst, step{id: fn.vpID, ref: int(f.slotRef[fn.vpSlot]), median: fn.median, leaf: -1})
	return f.appendWalk(f.appendWalk(dst, fn.left), fn.right)
}

// covers reports whether feats is exactly the tree's feature table, the one
// the arena holds. Identity (not just equal length) matters: the arena holds a
// copy of the coefficients, so a caller substituting a different source —
// DiskFeatures, or a test double with altered features — must have its
// bounds taken from feats itself.
func (t *Tree) covers(feats FeatureSource) bool {
	mf, ok := feats.(MemoryFeatures)
	return ok && len(mf) == len(t.features) && &mf[0] == &t.features[0]
}

// searcher is one traversal: the tree and query being read plus the pooled
// scratch (candidates, σ_UB) being written.
type searcher struct {
	t   *Tree
	f   *flatIndex
	ctx *spectral.QueryContext
	g   *lifecycle.Gate // nil ⇒ unlimited
	// arena is the flat index's arena when feats is nil or the table the
	// arena was packed from, and nil when bounds come per entry from feats.
	arena *spectral.Arena
	feats FeatureSource
	st    Stats
	*knn.Scratch
	// cut gives the leaf kernel's squared cut for the σ_UB of the moment
	// (spectral.AbandonCut; see boundsBlock).
	cut func(sigmaUB float64) float64
	// lbBuf/ubBuf are the scratch's bound buffers, sized to the largest leaf
	// block so evaluating a block never allocates.
	lbBuf, ubBuf []float64
	// kBlocks/kEvals/kAbandoned/kBlocksPruned are this search's kernel
	// counters, flushed once to the tree's atomics at the end of traversal.
	kBlocks, kEvals, kAbandoned, kBlocksPruned int64
}

// boundsAt evaluates the query bounds against the feature in slot.
func (s *searcher) boundsAt(slot int32) (lb, ub float64, err error) {
	if s.arena != nil {
		return s.arena.BoundsAt(s.ctx, int(slot), !s.t.opts.PaperBounds)
	}
	c, err := s.feats.Feature(int(s.f.slotRef[slot]))
	if err != nil {
		return 0, 0, err
	}
	if s.t.opts.PaperBounds {
		return c.BoundsFast(s.ctx)
	}
	return c.SafeBoundsFast(s.ctx)
}

// boundsBlock evaluates one leaf's entries into lbBuf/ubBuf: one batched
// kernel call over the arena, or one feats lookup per entry. The arena's
// kernel does not finish the bound of an entry it can tell is beyond σ_UB as
// it stands — σ_UB itself, not its ε-relaxed radius, so that what is
// abandoned is what Scratch.Add drops without a word to the gate, and until
// k candidates exist the gate's seed, +Inf (abandoning nothing) unless the
// search was seeded. Leaves only: a vantage point routes the walk on both of
// its bounds (boundsAt), so the walk, and σ_UB's whole history with it, is
// the one a search without the cut takes.
func (s *searcher) boundsBlock(slots []int32) error {
	if s.arena != nil {
		abandoned, err := s.arena.BoundsBlockCut(s.ctx, slots, !s.t.opts.PaperBounds, s.cut(s.SigmaUB()), s.lbBuf, s.ubBuf)
		s.kAbandoned += int64(abandoned)
		return err
	}
	for i, slot := range slots {
		lb, ub, err := s.boundsAt(slot)
		if err != nil {
			return err
		}
		s.lbBuf[i], s.ubBuf[i] = lb, ub
	}
	return nil
}

// ubPrune reports whether a subtree whose objects are all at vantage-point
// distance ≥ median can be discarded given the query↔vp upper bound ub —
// the paper's σ_UB prune applied at the gate's ε-relaxed radius. When only
// the relaxed radius fires (an exact search would have descended) the
// proven floor σ_UB/(1+ε) is recorded on the gate, keeping the response's
// BoundGap sound. At ε=0 the relaxed radius IS σ_UB and the decision is
// bit-identical to exact.
func (s *searcher) ubPrune(ub, median float64) bool {
	r := s.g.Relax(s.SigmaUB())
	if ub >= median-r {
		return false
	}
	if ub >= median-s.SigmaUB() {
		s.g.MarkRelaxed(r)
	}
	return true
}

// lbPrune is ubPrune's twin for subtrees whose objects are all at
// vantage-point distance ≤ median, keyed on the query↔vp lower bound lb.
func (s *searcher) lbPrune(lb, median float64) bool {
	r := s.g.Relax(s.SigmaUB())
	if lb <= median+r {
		return false
	}
	if lb <= median+s.SigmaUB() {
		s.g.MarkRelaxed(r)
	}
	return true
}

// visitFlat is the fig. 11 traversal, the only one: it walks flat node ni,
// collecting candidates and shrinking σ_UB.
func (s *searcher) visitFlat(ni int32) error {
	// Lifecycle gate: an expired context aborts the traversal with its
	// error; an exhausted budget stops descending (sticky, so the unwind is
	// O(depth)) and leaves the candidates collected so far for refinement.
	if ok, err := s.g.Visit(); err != nil {
		return err
	} else if !ok {
		return nil
	}
	s.st.NodesVisited++
	f := s.f
	nd := &f.nodes[ni]
	if nd.leafLo >= 0 {
		if !s.g.Leaf() {
			return nil // ng leaf budget exhausted: stop collecting, keep best-so-far
		}
		m := int(nd.leafHi - nd.leafLo)
		if m == 0 {
			return nil
		}
		if err := s.boundsBlock(f.leafSlots[nd.leafLo:nd.leafHi]); err != nil {
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
	lb, ub, err := s.boundsAt(nd.vpSlot)
	if err != nil {
		return err
	}
	s.st.BoundsComputed++
	s.kEvals++
	s.Add(nd.vpID, lb, ub)

	switch {
	case s.ubPrune(ub, nd.median):
		// Every right-subtree object is provably farther than the (relaxed)
		// pruning radius.
		s.st.UBPrunes++
		s.pruneBlocks(nd.right)
		return s.visitFlat(nd.left)
	case s.lbPrune(lb, nd.median):
		// Every left-subtree object is provably farther than the (relaxed)
		// pruning radius.
		s.st.LBPrunes++
		s.pruneBlocks(nd.left)
		return s.visitFlat(nd.right)
	default:
		// Guided descent (§4.1): follow first the child whose region
		// overlaps the [lb,ub] annulus more.
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
		if err := s.visitFlat(first); err != nil {
			return err
		}
		// Re-check prunability of the second child with the tightened σ_UB.
		if secondIsRight && s.ubPrune(ub, nd.median) {
			s.st.UBPrunes++
			s.pruneBlocks(second)
			return nil
		}
		if !secondIsRight && s.lbPrune(lb, nd.median) {
			s.st.LBPrunes++
			s.pruneBlocks(second)
			return nil
		}
		return s.visitFlat(second)
	}
}

// pruneBlocks credits a subtree prune with the leaf blocks it skipped.
func (s *searcher) pruneBlocks(ni int32) {
	s.kBlocksPruned += int64(s.f.nodes[ni].leafBlocks)
}

// flushKernelCounters folds one search's local counters into the
// tree-lifetime atomics (one Add per counter per search, not per block).
func (s *searcher) flushKernelCounters() {
	s.t.kernels.searches.Add(1)
	s.t.kernels.blocks.Add(s.kBlocks)
	s.t.kernels.evals.Add(s.kEvals)
	s.t.kernels.abandoned.Add(s.kAbandoned)
	s.t.kernels.blocksPruned.Add(s.kBlocksPruned)
}
