// Package vptree implements the paper's customized vantage-point tree (§4):
// a metric-space index whose vantage points and leaf objects are stored as
// *compressed* spectral representations, searched with the lower/upper
// distance bounds of package spectral instead of exact distances.
//
// Construction follows §4.1: the tree is built on uncompressed data (exact
// distances, exact split medians), selecting as vantage point the candidate
// with the highest standard deviation of distances to the other objects;
// only afterwards is every stored object converted to its compressed form.
//
// Search is the fig. 11 algorithm extended with the guided-descent heuristic:
// at each vantage point the child whose distance annulus overlaps the query
// bounds more is visited first, the best-so-far upper bound σ_UB prunes
// subtrees, and the surviving compressed candidates are refined by fetching
// full sequences from a seqstore.Store in increasing lower-bound order with
// early abandoning.
//
// The engines do not serve their searches from this tree: they run fig. 11
// over every feature in sequence-ID order (knn.Scan): at 16 384 series the
// walk bounded 75–100 % of the rows anyway, out of order, and the scan needs
// no build. The tree is the paper's figs. 22–23
// artifact (cmd/experiments, internal/benchutil) and what Engine.Tree builds
// for the benchmark's ledger.
package vptree

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/knn"
	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

// Options configures tree construction.
type Options struct {
	// Method is the compressed representation family (default BestMinError).
	Method spectral.Method
	// Budget is the memory budget c of "2c+1 doubles" per object (default 16).
	Budget int
	// LeafSize is the max number of objects in a leaf (default 4).
	LeafSize int
	// Seed drives candidate sampling (default 1).
	Seed int64
	// PaperBounds selects the paper-faithful fig. 9 bounds instead of the
	// provably sound SafeBounds. The default (false) uses SafeBounds so that
	// search results are exact.
	PaperBounds bool
	// Dynamic retains the uncompressed spectra so Insert works after
	// construction, trading the compact-index property for
	// updatability (see dynamic.go).
	Dynamic bool
	// EnergyFraction, when in (0,1], switches to the paper's §8 extension:
	// each object keeps however many best coefficients capture this
	// fraction of its energy (variable-size BestMinError representations)
	// instead of a fixed Budget.
	EnergyFraction float64
	// NoGuidedDescent disables the §4.1 annulus-overlap heuristic and
	// always visits the left child first (ablation knob; results are
	// unchanged, work may increase).
	NoGuidedDescent bool
	// BuildWorkers bounds the goroutines used during construction (default
	// GOMAXPROCS). The tree is deterministic for a given Seed regardless of
	// the worker count: every node derives its sampling RNG from its
	// position in the tree rather than from a shared sequential stream.
	BuildWorkers int
}

func (o *Options) fill() {
	if o.Method == 0 {
		o.Method = spectral.BestMinError
	}
	if o.Budget == 0 {
		o.Budget = 16
	}
	if o.LeafSize == 0 {
		o.LeafSize = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BuildWorkers == 0 {
		o.BuildWorkers = runtime.GOMAXPROCS(0)
	}
	if o.BuildWorkers < 1 {
		o.BuildWorkers = 1
	}
}

// FeatureSource resolves a feature reference to its compressed
// representation. The in-memory implementation is a slice lookup; the disk
// implementation (DiskFeatures) reads and decodes a record, modelling the
// "index on disk" configuration of fig. 23.
type FeatureSource interface {
	// Feature returns the compressed representation for ref.
	Feature(ref int) (*spectral.Compressed, error)
}

// MemoryFeatures is the in-memory FeatureSource.
type MemoryFeatures []*spectral.Compressed

// Feature implements FeatureSource.
func (m MemoryFeatures) Feature(ref int) (*spectral.Compressed, error) {
	if ref < 0 || ref >= len(m) {
		return nil, fmt.Errorf("vptree: feature ref %d out of range", ref)
	}
	return m[ref], nil
}

// step is one record of a tree in DFS pre-order: the form the builder emits,
// tree.bin's node section holds and layout lays out (flat.go). A vantage
// point (leaf < 0) carries its sequence ID, feature ref and median, and is
// followed by its left and then its right subtree; a leaf carries the number
// of its entries, which are the next that many steps (their id and ref).
type step struct {
	id, ref int
	median  float64
	leaf    int
}

// Tree is the compressed vantage-point tree.
type Tree struct {
	seqLen int
	opts   Options
	// features is the feature table, one per object (ref = the order objects
	// were added in); the flat index's arena holds a copy of exactly it.
	features MemoryFeatures
	// specByID retains the uncompressed spectra in Dynamic mode.
	specByID map[int]*spectral.HalfSpectrum
	// flat is the tree (see flat.go): Build lays it out, Insert
	// changes it where it stands, and it is laid out afresh — repacks counts
	// how often — when inserts have left enough of it out of walk order.
	flat    *flatIndex
	repacks int
	// kernels accumulates traversal kernel work across searches.
	kernels kernelCounters
}

// Stats reports the work one search performed. Every field is a plain
// event count for that single search (not a rate and not cumulative across
// searches); accumulate across searches with Add.
type Stats struct {
	// BoundsComputed counts lower/upper bound pair evaluations against
	// compressed objects (vantage points and leaf entries) — each is one
	// O(budget) pass over a stored representation.
	BoundsComputed int
	// NodesVisited counts tree nodes traversed (internal nodes and leaves).
	NodesVisited int
	// Candidates counts compressed objects whose lower bound survived the
	// final σ_UB filter and therefore entered the refinement phase.
	Candidates int
	// FullRetrievals counts uncompressed sequences fetched from the
	// sequence store during refinement — the random-I/O cost the index
	// exists to minimize (fig. 23's dominant term on disk).
	FullRetrievals int
	// LBPrunes counts prunes justified by a lower bound: subtrees skipped
	// because every object in them is provably farther than σ_UB
	// (lb > median + σ_UB at an internal node), plus collected candidates
	// discarded at the end of traversal because their lower bound exceeded
	// the final σ_UB.
	LBPrunes int
	// UBPrunes counts subtrees skipped because the query's upper bound at
	// the vantage point proves the far child irrelevant
	// (ub < median − σ_UB at an internal node).
	UBPrunes int
	// GuidedDescentHits counts internal nodes where the §4.1 annulus-overlap
	// heuristic reordered traversal (the right child was visited first).
	GuidedDescentHits int
	// ExactDistances counts exact Euclidean evaluations during refinement,
	// including ones that early-abandoned partway through the sequence.
	ExactDistances int
	// SketchSkips counts refinement candidates the store's sketch proved
	// farther than the k-th best distance, which were therefore not fetched
	// (see knn.Refine). FullRetrievals + SketchSkips is what FullRetrievals
	// would be without the sketch.
	SketchSkips int
}

// Add accumulates another search's stats into s, so callers aggregating
// over a query workload (benchmarks, the engine's metrics registry) do not
// hand-sum each field.
func (s *Stats) Add(o Stats) {
	s.BoundsComputed += o.BoundsComputed
	s.NodesVisited += o.NodesVisited
	s.Candidates += o.Candidates
	s.FullRetrievals += o.FullRetrievals
	s.LBPrunes += o.LBPrunes
	s.UBPrunes += o.UBPrunes
	s.GuidedDescentHits += o.GuidedDescentHits
	s.ExactDistances += o.ExactDistances
	s.SketchSkips += o.SketchSkips
}

// Build constructs the tree over the given spectra. ids[i] is the sequence
// ID of specs[i] (it must address the same sequence in the seqstore used at
// query time). The returned tree owns an in-memory feature table; use
// Features to obtain it, e.g. for spilling to disk.
//
// Construction runs on up to Options.BuildWorkers goroutines: the feature
// table is compressed in parallel up front (ref = input position) and
// independent subtrees are dispatched to a bounded pool. The result is
// bit-identical for every worker count because each node's vantage-point
// sampling RNG is derived from (Seed, tree path) instead of a shared
// sequential stream.
func Build(specs []*spectral.HalfSpectrum, ids []int, opts Options) (*Tree, error) {
	if len(specs) == 0 {
		return nil, errors.New("vptree: empty input")
	}
	if len(specs) != len(ids) {
		return nil, errors.New("vptree: specs/ids length mismatch")
	}
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("vptree: sequence %d given twice: %w", id, ErrDuplicateID)
		}
		seen[id] = struct{}{}
	}
	opts.fill()
	n := specs[0].N
	for _, s := range specs {
		if s.N != n {
			return nil, spectral.ErrMismatch
		}
	}
	t := &Tree{seqLen: n, opts: opts}
	if opts.Dynamic {
		t.specByID = make(map[int]*spectral.HalfSpectrum, len(specs))
		for i, s := range specs {
			t.specByID[ids[i]] = s
		}
	}

	feats, err := compressAll(specs, opts)
	if err != nil {
		return nil, err
	}
	t.features = feats
	refs := make([]int, len(specs))
	idx := make([]int, len(specs))
	for i := range idx {
		refs[i] = i
		idx[i] = i
	}
	b := &builder{t: t, specs: specs, ids: ids, refs: refs}
	if opts.BuildWorkers > 1 {
		b.sem = make(chan struct{}, opts.BuildWorkers-1)
	}
	walk, err := b.build(make([]step, 0, 2*len(specs)), idx, rootPath, newRand())
	if err != nil {
		return nil, err
	}
	if t.flat, err = layout(walk, feats); err != nil {
		return nil, err
	}
	return t, nil
}

// compressOne compresses a single spectrum under the tree's options (fixed
// Budget, or the §8 energy-fraction scheme when configured).
func compressOne(spec *spectral.HalfSpectrum, opts Options) (*spectral.Compressed, error) {
	if opts.EnergyFraction > 0 {
		return spectral.CompressEnergy(spec, opts.EnergyFraction)
	}
	return spectral.Compress(spec, opts.Method, opts.Budget)
}

// compressAll builds the feature table up front with feats[i] holding the
// compressed form of specs[i], fanning the independent compressions across
// Options.BuildWorkers goroutines.
func compressAll(specs []*spectral.HalfSpectrum, opts Options) (MemoryFeatures, error) {
	feats := make(MemoryFeatures, len(specs))
	errs := make([]error, len(specs))
	workers := opts.BuildWorkers
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, s := range specs {
			var err error
			if feats[i], err = compressOne(s, opts); err != nil {
				return nil, err
			}
		}
		return feats, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				feats[i], errs[i] = compressOne(specs[i], opts)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs { // first error by input position, deterministically
		if err != nil {
			return nil, err
		}
	}
	return feats, nil
}

// builder carries one construction pass (a full Build or a dynamic leaf
// rebuild), which emits the walk of the tree it builds. refs[i] is what the
// walk names specs[i] by — its feature-table ref in a Build, its slot in a
// leaf rebuild — resolved before the recursion starts, so build itself is
// read-only over shared state and sibling subtrees may run concurrently.
type builder struct {
	t     *Tree
	specs []*spectral.HalfSpectrum
	ids   []int
	refs  []int
	salt  uint64        // decorrelates independent passes (leaf rebuilds)
	sem   chan struct{} // spare worker slots; nil ⇒ fully serial
}

// rootPath is the path label of a pass's root node; children are labelled
// 2p (left) and 2p+1 (right), uniquely addressing every tree position.
const rootPath uint64 = 1

// parallelSubtreeMin is the smallest subtree worth a goroutine handoff.
const parallelSubtreeMin = 32

// splitmix64 is the SplitMix64 finalizer, used to turn (seed, salt, path)
// into well-separated RNG streams.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng reseeds r, the building goroutine's own, as the sampling RNG for the
// node at path and returns it. Deriving the stream from the tree position
// rather than threading one stream through the DFS is what makes parallel
// construction deterministic. Seed restarts exactly the stream a new
// rand.New(rand.NewSource(seed)) draws, so one Rand serves every node its
// goroutine builds.
func (b *builder) rng(r *rand.Rand, path uint64) *rand.Rand {
	r.Seed(int64(splitmix64(uint64(b.t.opts.Seed) ^ splitmix64(b.salt) ^ splitmix64(path))))
	return r
}

// newRand is a building goroutine's RNG, reseeded per node by builder.rng.
func newRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// leaf appends the leaf of the objects idx names to dst.
func (b *builder) leaf(dst []step, idx []int) []step {
	dst = append(dst, step{leaf: len(idx)})
	for _, i := range idx {
		dst = append(dst, step{id: b.ids[i], ref: b.refs[i]})
	}
	return dst
}

// build appends the subtree over idx, at path, to dst in DFS pre-order.
func (b *builder) build(dst []step, idx []int, path uint64, r *rand.Rand) ([]step, error) {
	if len(idx) <= b.t.opts.LeafSize {
		return b.leaf(dst, idx), nil
	}

	vpPos, err := b.t.selectVP(b.specs, idx, b.rng(r, path))
	if err != nil {
		return nil, err
	}
	vp := idx[vpPos]
	// Remove the vantage point from the working set.
	idx[vpPos] = idx[len(idx)-1]
	rest := idx[:len(idx)-1]

	// Exact distances to the vantage point (construction uses uncompressed
	// representations, §4.1).
	dists := make([]float64, len(rest))
	for i, j := range rest {
		d, err := spectral.Distance(b.specs[vp], b.specs[j])
		if err != nil {
			return nil, err
		}
		dists[i] = d
	}
	median := medianOf(dists)

	var leftIdx, rightIdx []int
	for i, j := range rest {
		if dists[i] <= median {
			leftIdx = append(leftIdx, j)
		} else {
			rightIdx = append(rightIdx, j)
		}
	}
	// Degenerate split (many ties at the median): fall back to a leaf to
	// guarantee progress.
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return b.leaf(dst, append(append([]int{vp}, leftIdx...), rightIdx...)), nil
	}

	dst = append(dst, step{id: b.ids[vp], ref: b.refs[vp], median: median, leaf: -1})

	// Hand the right subtree to a pooled goroutine when a slot is free and
	// the subtree is big enough to amortize the handoff; otherwise recurse
	// serially. Either way the walk is the same: the right subtree's steps
	// follow the left's.
	if b.sem != nil && len(rightIdx) >= parallelSubtreeMin {
		select {
		case b.sem <- struct{}{}:
			var (
				wg    sync.WaitGroup
				right []step
				rerr  error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-b.sem }()
				right, rerr = b.build(nil, rightIdx, 2*path+1, newRand())
			}()
			dst, err = b.build(dst, leftIdx, 2*path, r)
			wg.Wait()
			if err != nil {
				return nil, err
			}
			if rerr != nil {
				return nil, rerr
			}
			return append(dst, right...), nil
		default:
		}
	}
	if dst, err = b.build(dst, leftIdx, 2*path, r); err != nil {
		return nil, err
	}
	return b.build(dst, rightIdx, 2*path+1, r)
}

// vpCandidates is how many vantage-point candidates selectVP evaluates per
// split, and vpSample how many distances it samples per candidate when
// estimating the distance spread.
const (
	vpCandidates = 8
	vpSample     = 32
)

// selectVP implements the §4.1 heuristic: among sampled candidates pick the
// one with the highest standard deviation of distances to sampled objects —
// "an analogue of the largest eigenvector in SVD decomposition".
func (t *Tree) selectVP(specs []*spectral.HalfSpectrum, idx []int, rng *rand.Rand) (int, error) {
	nc := min(vpCandidates, len(idx))
	ns := min(vpSample, len(idx)-1)
	bestPos, bestSpread := 0, -1.0
	for c := 0; c < nc; c++ {
		pos := rng.Intn(len(idx))
		cand := idx[pos]
		var sum, sumSq float64
		count := 0
		for s := 0; s < ns; s++ {
			other := idx[rng.Intn(len(idx))]
			if other == cand {
				continue
			}
			d, err := spectral.Distance(specs[cand], specs[other])
			if err != nil {
				return 0, err
			}
			sum += d
			sumSq += d * d
			count++
		}
		if count == 0 {
			continue
		}
		mean := sum / float64(count)
		spread := sumSq/float64(count) - mean*mean
		if spread > bestSpread {
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

// Len returns the number of indexed sequences.
func (t *Tree) Len() int { return len(t.features) }

// SeqLen returns the indexed sequence length.
func (t *Tree) SeqLen() int { return t.seqLen }

// Features returns the in-memory feature table built alongside the tree.
func (t *Tree) Features() MemoryFeatures { return t.features }

// Result is one neighbour: the sequence ID and its exact Euclidean distance.
type Result = knn.Result

// Search returns the k nearest neighbours of the query values, refining
// candidates against the full sequences in store. feats resolves compressed
// features (pass t.Features() for the in-memory configuration or a
// DiskFeatures for the on-disk one).
func (t *Tree) Search(query []float64, k int, feats FeatureSource, store seqstore.Store) ([]Result, Stats, error) {
	res, st, _, err := t.SearchLimited(query, k, feats, store, nil)
	return res, st, err
}

// SearchLimited is Search under a request-lifecycle gate: cancellation is
// checked at node-visit granularity (an expired context aborts with its
// error within a bounded number of bound computations) and budget
// exhaustion stops traversal gracefully, refining up to k collected
// candidates and returning the best-so-far neighbours with truncated=true.
// A nil gate makes it identical to Search.
func (t *Tree) SearchLimited(query []float64, k int, feats FeatureSource, store seqstore.Store, g *lifecycle.Gate) (res []Result, st Stats, truncated bool, err error) {
	if err := t.admit(k, len(query), g); err != nil {
		return nil, Stats{}, false, err
	}
	q, err := spectral.Prepare(query)
	if err != nil {
		return nil, Stats{}, false, err
	}
	defer q.Release()
	return t.SearchPrepared(q, k, feats, store, g)
}

// admit validates a search's arguments and runs the gate's entry check, so a
// bad k, a wrong-length query or a dead context costs no transform.
func (t *Tree) admit(k, queryLen int, g *lifecycle.Gate) error {
	if k < 1 {
		return errors.New("vptree: k must be >= 1")
	}
	if queryLen != t.seqLen {
		return spectral.ErrMismatch
	}
	return g.Check()
}

// SearchPrepared is the one search entry: SearchLimited for a query whose
// spectrum and bound context already exist (see spectral.Prepared; q is only
// read), so callers that run one query against several trees prepare it
// once. A nil feats searches the tree's own feature table, the one Features
// returns.
func (t *Tree) SearchPrepared(q *spectral.Prepared, k int, feats FeatureSource, store seqstore.Store, g *lifecycle.Gate) ([]Result, Stats, bool, error) {
	return t.search(q, k, feats, store, g, spectral.AbandonCut)
}

// search is SearchPrepared with the leaf kernel's cut as a function of σ_UB
// (see searcher.boundsBlock). Every search passes spectral.AbandonCut; the
// test that pins what abandoning must not change passes +Inf.
func (t *Tree) search(q *spectral.Prepared, k int, feats FeatureSource, store seqstore.Store, g *lifecycle.Gate, cut func(sigmaUB float64) float64) ([]Result, Stats, bool, error) {
	if err := t.admit(k, len(q.Values()), g); err != nil {
		return nil, Stats{}, false, err
	}

	// Phase 1: traverse, collecting candidates and shrinking σ_UB from the
	// gate's seed (+Inf unless a sharded scatter seeded it).
	sc := knn.Get(k)
	defer sc.Release()
	sc.Seed(g.Seed(), len(q.Values()))
	s := &searcher{
		t: t, f: t.flat, feats: feats, g: g,
		ctx: q.Context(), Scratch: sc, cut: cut,
	}
	// Bounds come from the arena's batched kernel when feats is the table the
	// arena was packed from (nil: the tree's own), and per entry from feats
	// otherwise (disk features, a test double). Both evaluate the same
	// floating-point operations in the same order, so results and Stats do
	// not depend on which one ran (see spectral.Arena).
	if feats == nil || t.covers(feats) {
		s.arena = s.f.arena
	}
	s.lbBuf, s.ubBuf = sc.BoundBufs(s.f.maxLeaf)
	st := &s.st
	err := s.visitFlat(0)
	s.flushKernelCounters()
	if err != nil {
		return nil, *st, false, err
	}
	// A budget that expired during traversal still grants refinement of up
	// to k collected candidates (bounded overrun), so a truncated search
	// returns genuinely refined best-so-far neighbours instead of nothing.
	if g.Truncated() {
		g.Grace(k)
	}

	// Phase 2: prune by the k-th smallest upper bound (maintained during
	// traversal as σ_UB) and refine in increasing lower-bound order with
	// early abandoning (fig. 11 NNSearch).
	kept, dropped := sc.Filter(g)
	st.Candidates = kept
	st.LBPrunes += dropped

	res, rs, err := sc.Refine(q, store, g)
	st.FullRetrievals = rs.FullRetrievals
	st.ExactDistances = rs.ExactDistances
	st.SketchSkips = rs.SketchSkips
	if err != nil {
		return nil, *st, false, err
	}
	return res, *st, g.Truncated(), nil
}
