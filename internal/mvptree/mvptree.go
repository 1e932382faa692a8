// Package mvptree implements a multiple-vantage-point tree in the style of
// Bozkaya & Ozsoyoglu (SIGMOD'97) — the extension the paper's §4 explicitly
// allows for ("all possible extensions to the VP-tree, such as the usage of
// multiple vantage points [3] ... can be implemented on top of the proposed
// search mechanisms").
//
// Differences from the binary VP-tree of package vptree:
//
//   - every internal node holds *two* vantage points; the first splits the
//     population at its median distance, the second splits each half again,
//     giving fan-out 4 with half as many vantage points per level;
//   - every leaf entry keeps its exact distances to the vantage points on
//     its root path (up to Options.PathDists), so at query time the triangle
//     inequality prunes leaf entries *before* any bound computation against
//     their compressed representation — the mvp-tree's signature trick.
//
// Like the VP-tree, construction uses exact distances on uncompressed
// spectra and the stored objects are compressed afterwards; searches refine
// surviving candidates against the full sequences with early abandoning and
// return exact nearest neighbours.
package mvptree

import (
	"errors"
	"math/rand"
	"sort"

	"repro/internal/knn"
	"repro/internal/spectral"
)

// Options configures construction.
type Options struct {
	// Method and Budget select the compressed representation (defaults:
	// BestMinError, 16).
	Method spectral.Method
	Budget int
	// LeafSize is the maximum leaf population (default 8).
	LeafSize int
	// PathDists caps how many root-path vantage-point distances each leaf
	// entry retains (default 8).
	PathDists int
	// Seed drives vantage-point sampling (default 1).
	Seed int64
	// PaperBounds selects fig. 9 bounds instead of SafeBounds.
	PaperBounds bool
}

func (o *Options) fill() {
	if o.Method == 0 {
		o.Method = spectral.BestMinError
	}
	if o.Budget == 0 {
		o.Budget = 16
	}
	if o.LeafSize == 0 {
		o.LeafSize = 8
	}
	if o.PathDists == 0 {
		o.PathDists = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// entry is one leaf object: compressed ref plus exact root-path distances.
type entry struct {
	id    int
	ref   int
	pathD []float64
}

type node struct {
	// Vantage points (refs into the feature table; IDs are database IDs).
	vp1ID, vp1Ref int
	vp2ID, vp2Ref int
	// m1 is vp1's median; m2 holds vp2's medians within each vp1 half.
	m1 float64
	m2 [2]float64
	// children[i][j]: i = side of m1, j = side of m2[i].
	children [2][2]*node
	leaf     []entry // non-nil ⇒ leaf
}

// Tree is the compressed mvp-tree.
type Tree struct {
	root     *node
	n        int
	seqLen   int
	opts     Options
	features []*spectral.Compressed
	// arena is the flat structure-of-arrays packing of features (see
	// spectral.Arena); bound evaluations read it instead of chasing the
	// per-feature heap objects. nil when packing failed, in which case
	// searches fall back to the feature slice — results are identical
	// either way (the arena kernel is bit-identical to the scalar path).
	arena *spectral.Arena
}

// Stats reports one search's work.
type Stats struct {
	// BoundsComputed counts bound evaluations against compressed objects.
	BoundsComputed int
	// PathPruned counts leaf entries eliminated by stored path distances
	// alone, without touching their compressed representation.
	PathPruned int
	// NodesVisited counts visited nodes.
	NodesVisited int
	// Candidates counts objects surviving traversal.
	Candidates int
	// FullRetrievals counts uncompressed sequences fetched.
	FullRetrievals int
	// SketchSkips counts candidates the store's sketch kept from being
	// fetched (see knn.Refine).
	SketchSkips int
}

// Result is one neighbour.
type Result = knn.Result

// Build constructs the tree over spectra with database ids.
func Build(specs []*spectral.HalfSpectrum, ids []int, opts Options) (*Tree, error) {
	if len(specs) == 0 {
		return nil, errors.New("mvptree: empty input")
	}
	if len(specs) != len(ids) {
		return nil, errors.New("mvptree: specs/ids length mismatch")
	}
	opts.fill()
	n := specs[0].N
	for _, s := range specs {
		if s.N != n {
			return nil, spectral.ErrMismatch
		}
	}
	t := &Tree{n: len(specs), seqLen: n, opts: opts}
	rng := rand.New(rand.NewSource(opts.Seed))
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	var err error
	t.root, err = t.build(specs, ids, idx, nil, rng)
	if err != nil {
		return nil, err
	}
	if a, err := spectral.NewArena(t.features); err == nil {
		t.arena = a
	}
	return t, nil
}

// compress stores the compressed form of specs[i].
func (t *Tree) compress(specs []*spectral.HalfSpectrum, i int) (int, error) {
	c, err := spectral.Compress(specs[i], t.opts.Method, t.opts.Budget)
	if err != nil {
		return 0, err
	}
	t.features = append(t.features, c)
	return len(t.features) - 1, nil
}

// build recursively constructs the subtree over idx. pathVPs holds the
// spectra of root-path vantage points (outermost first) whose distances the
// leaves retain.
func (t *Tree) build(specs []*spectral.HalfSpectrum, ids, idx []int, pathVPs []*spectral.HalfSpectrum, rng *rand.Rand) (*node, error) {
	// Need at least 2 vantage points plus one object per quadrant for an
	// internal node to make sense.
	if len(idx) <= t.opts.LeafSize || len(idx) < 6 {
		return t.makeLeaf(specs, ids, idx, pathVPs)
	}

	// First vantage point: the max-spread heuristic of §4.1.
	vp1Pos, err := t.selectVP(specs, idx, rng)
	if err != nil {
		return nil, err
	}
	vp1 := idx[vp1Pos]
	idx[vp1Pos] = idx[len(idx)-1]
	rest := idx[:len(idx)-1]

	d1 := make([]float64, len(rest))
	for i, j := range rest {
		if d1[i], err = spectral.Distance(specs[vp1], specs[j]); err != nil {
			return nil, err
		}
	}
	m1 := medianOf(d1)

	// Second vantage point: per the mvp-tree heuristic, a point far from
	// the first — take the farthest of a sample.
	vp2Pos := 0
	best := -1.0
	for c := 0; c < 8 && c < len(rest); c++ {
		p := rng.Intn(len(rest))
		if d1[p] > best {
			best, vp2Pos = d1[p], p
		}
	}
	vp2 := rest[vp2Pos]
	// Remove vp2 (and its d1 entry).
	rest[vp2Pos] = rest[len(rest)-1]
	d1[vp2Pos] = d1[len(d1)-1]
	rest = rest[:len(rest)-1]
	d1 = d1[:len(d1)-1]

	d2 := make([]float64, len(rest))
	for i, j := range rest {
		if d2[i], err = spectral.Distance(specs[vp2], specs[j]); err != nil {
			return nil, err
		}
	}

	// Partition: side1 by m1, then each side by its own vp2 median.
	var sideIdx [2][]int
	var sideD2 [2][]float64
	for i, j := range rest {
		s := 0
		if d1[i] > m1 {
			s = 1
		}
		sideIdx[s] = append(sideIdx[s], j)
		sideD2[s] = append(sideD2[s], d2[i])
	}
	if len(sideIdx[0]) == 0 || len(sideIdx[1]) == 0 {
		// Degenerate split (ties): leaf out.
		return t.makeLeaf(specs, ids, idx, pathVPs)
	}

	nd := &node{m1: m1}
	if nd.vp1Ref, err = t.compress(specs, vp1); err != nil {
		return nil, err
	}
	nd.vp1ID = ids[vp1]
	if nd.vp2Ref, err = t.compress(specs, vp2); err != nil {
		return nil, err
	}
	nd.vp2ID = ids[vp2]

	childPath := pathVPs
	if len(childPath) < t.opts.PathDists {
		childPath = append(append([]*spectral.HalfSpectrum{}, pathVPs...), specs[vp1], specs[vp2])
		if len(childPath) > t.opts.PathDists {
			childPath = childPath[:t.opts.PathDists]
		}
	}

	for s := 0; s < 2; s++ {
		m2 := medianOf(sideD2[s])
		nd.m2[s] = m2
		var lo, hi []int
		for i, j := range sideIdx[s] {
			if sideD2[s][i] <= m2 {
				lo = append(lo, j)
			} else {
				hi = append(hi, j)
			}
		}
		if len(lo) == 0 || len(hi) == 0 {
			// Degenerate inner split: one child leaf holds the whole side.
			child, err := t.build(specs, ids, sideIdx[s], childPath, rng)
			if err != nil {
				return nil, err
			}
			nd.children[s][0] = child
			nd.children[s][1] = &node{leaf: []entry{}}
			continue
		}
		if nd.children[s][0], err = t.build(specs, ids, lo, childPath, rng); err != nil {
			return nil, err
		}
		if nd.children[s][1], err = t.build(specs, ids, hi, childPath, rng); err != nil {
			return nil, err
		}
	}
	return nd, nil
}

func (t *Tree) makeLeaf(specs []*spectral.HalfSpectrum, ids, idx []int, pathVPs []*spectral.HalfSpectrum) (*node, error) {
	nd := &node{leaf: make([]entry, 0, len(idx))}
	for _, i := range idx {
		ref, err := t.compress(specs, i)
		if err != nil {
			return nil, err
		}
		e := entry{id: ids[i], ref: ref}
		for _, vp := range pathVPs {
			d, err := spectral.Distance(vp, specs[i])
			if err != nil {
				return nil, err
			}
			e.pathD = append(e.pathD, d)
		}
		nd.leaf = append(nd.leaf, e)
	}
	return nd, nil
}

func (t *Tree) selectVP(specs []*spectral.HalfSpectrum, idx []int, rng *rand.Rand) (int, error) {
	nc := 8
	if nc > len(idx) {
		nc = len(idx)
	}
	ns := 24
	if ns > len(idx)-1 {
		ns = len(idx) - 1
	}
	bestPos, bestSpread := 0, -1.0
	for c := 0; c < nc; c++ {
		pos := rng.Intn(len(idx))
		var sum, sumSq float64
		cnt := 0
		for s := 0; s < ns; s++ {
			other := idx[rng.Intn(len(idx))]
			if other == idx[pos] {
				continue
			}
			d, err := spectral.Distance(specs[idx[pos]], specs[other])
			if err != nil {
				return 0, err
			}
			sum += d
			sumSq += d * d
			cnt++
		}
		if cnt == 0 {
			continue
		}
		mean := sum / float64(cnt)
		if spread := sumSq/float64(cnt) - mean*mean; spread > bestSpread {
			bestSpread, bestPos = spread, pos
		}
	}
	return bestPos, nil
}

func medianOf(x []float64) float64 {
	cp := append([]float64(nil), x...)
	sort.Float64s(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.n }

// SeqLen returns the indexed sequence length.
func (t *Tree) SeqLen() int { return t.seqLen }

// Features returns the feature table.
func (t *Tree) Features() []*spectral.Compressed { return t.features }
