package mvptree

import (
	"errors"

	"repro/internal/knn"
	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

// vpBound is the query's distance interval to one root-path vantage point.
type vpBound struct {
	lb, ub float64
}

// searcher is one traversal: the tree and query being read plus the pooled
// scratch (candidates, σ_UB) being written.
type searcher struct {
	t   *Tree
	ctx *spectral.QueryContext
	g   *lifecycle.Gate // nil ⇒ unlimited
	st  Stats
	*knn.Scratch
	// path holds the query bounds to the vantage points on the current
	// root path (outermost first), capped at Options.PathDists.
	path []vpBound
}

// Search returns the k nearest neighbours of query, refining candidates
// against store. The feature table is in-memory (t.Features()).
func (t *Tree) Search(query []float64, k int, store seqstore.Store) ([]Result, Stats, error) {
	res, st, _, err := t.SearchLimited(query, k, store, nil)
	return res, st, err
}

// SearchLimited is Search under a request-lifecycle gate: cancellation
// aborts at node-visit granularity, budget exhaustion truncates gracefully
// (best-so-far neighbours, truncated=true). A nil gate makes it identical
// to Search.
func (t *Tree) SearchLimited(query []float64, k int, store seqstore.Store, g *lifecycle.Gate) ([]Result, Stats, bool, error) {
	if err := t.admit(k, len(query), g); err != nil {
		return nil, Stats{}, false, err
	}
	q, err := spectral.Prepare(query)
	if err != nil {
		return nil, Stats{}, false, err
	}
	return t.SearchPrepared(q, k, store, g)
}

// admit validates a search's arguments and runs the gate's entry check, so a
// bad k, a wrong-length query or a dead context costs no transform.
func (t *Tree) admit(k, queryLen int, g *lifecycle.Gate) error {
	if k < 1 {
		return errors.New("mvptree: k must be >= 1")
	}
	if queryLen != t.seqLen {
		return spectral.ErrMismatch
	}
	return g.Check()
}

// SearchPrepared is SearchLimited for a query whose spectrum and bound
// context already exist (see spectral.Prepared) — the one traversal entry;
// the by-values entry points prepare and delegate. q is only read.
func (t *Tree) SearchPrepared(q *spectral.Prepared, k int, store seqstore.Store, g *lifecycle.Gate) ([]Result, Stats, bool, error) {
	if err := t.admit(k, len(q.Values()), g); err != nil {
		return nil, Stats{}, false, err
	}
	sc := knn.Get(k)
	defer sc.Release()
	s := &searcher{t: t, ctx: q.Context(), g: g, Scratch: sc}
	st := &s.st
	if err := s.visit(t.root); err != nil {
		return nil, *st, false, err
	}
	// See vptree: a truncated traversal still refines up to k candidates.
	if g.Truncated() {
		g.Grace(k)
	}
	st.Candidates, _ = sc.Filter(g)
	res, rs, err := sc.Refine(q, store, g)
	st.FullRetrievals = rs.FullRetrievals
	st.SketchSkips = rs.SketchSkips
	if err != nil {
		return nil, *st, false, err
	}
	return res, *st, g.Truncated(), nil
}

func (s *searcher) bounds(ref int) (lb, ub float64, err error) {
	s.st.BoundsComputed++
	// The flat arena and the per-feature scalar path are bit-identical
	// (spectral.Arena); the arena just reads contiguous memory. MVP leaves
	// prune entries by stored path distances against the evolving sigmaUB
	// before any bound is computed, so evaluation stays per-entry here
	// rather than whole-block.
	if s.t.arena != nil {
		return s.t.arena.BoundsAt(s.ctx, ref, !s.t.opts.PaperBounds)
	}
	c := s.t.features[ref]
	if s.t.opts.PaperBounds {
		return c.BoundsFast(s.ctx)
	}
	return c.SafeBoundsFast(s.ctx)
}

func (s *searcher) visit(nd *node) error {
	if nd == nil {
		return nil
	}
	// Lifecycle gate: cancellation aborts, budget exhaustion stops the
	// descent (sticky) with the candidates collected so far.
	if ok, err := s.g.Visit(); err != nil {
		return err
	} else if !ok {
		return nil
	}
	s.st.NodesVisited++
	if nd.leaf != nil {
		return s.visitLeaf(nd)
	}

	lb1, ub1, err := s.bounds(nd.vp1Ref)
	if err != nil {
		return err
	}
	s.Add(nd.vp1ID, lb1, ub1)
	lb2, ub2, err := s.bounds(nd.vp2Ref)
	if err != nil {
		return err
	}
	s.Add(nd.vp2ID, lb2, ub2)

	// Push path bounds for the leaves below (same order as construction).
	pushed := 0
	if len(s.path) < s.t.opts.PathDists {
		s.path = append(s.path, vpBound{lb1, ub1})
		pushed++
		if len(s.path) < s.t.opts.PathDists {
			s.path = append(s.path, vpBound{lb2, ub2})
			pushed++
		}
	}
	defer func() { s.path = s.path[:len(s.path)-pushed] }()

	// Quadrant pruning: objects in side 0 of vp1 have d(x,vp1) ≤ m1, side 1
	// have d(x,vp1) > m1; analogously for vp2 within each side. A side is
	// prunable when the triangle inequality puts every object beyond the
	// (ε-relaxed) pruning radius — see lbPrune/ubPrune.
	for s1 := 0; s1 < 2; s1++ {
		if s1 == 0 && s.lbPrune(lb1, nd.m1) {
			continue // every d(x,vp1) ≤ m1 object is beyond the radius
		}
		if s1 == 1 && s.ubPrune(ub1, nd.m1) {
			continue // every d(x,vp1) > m1 object is beyond the radius
		}
		for s2 := 0; s2 < 2; s2++ {
			if s2 == 0 && s.lbPrune(lb2, nd.m2[s1]) {
				continue
			}
			if s2 == 1 && s.ubPrune(ub2, nd.m2[s1]) {
				continue
			}
			if err := s.visit(nd.children[s1][s2]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *searcher) visitLeaf(nd *node) error {
	if !s.g.Leaf() {
		return nil // ng leaf budget exhausted: stop collecting, keep best-so-far
	}
	for _, e := range nd.leaf {
		// Path-distance pruning: the stored exact d(x, vp_i) plus the
		// query's interval to vp_i lower-bound d(q, x) for free.
		pruned := false
		limit := len(e.pathD)
		if len(s.path) < limit {
			limit = len(s.path)
		}
		for i := 0; i < limit; i++ {
			if s.pathPrune(e.pathD[i], s.path[i]) {
				pruned = true
				break
			}
		}
		if pruned {
			s.st.PathPruned++
			continue
		}
		lb, ub, err := s.bounds(e.ref)
		if err != nil {
			return err
		}
		s.Add(e.id, lb, ub)
	}
	return nil
}

// lbPrune reports whether a partition whose objects all have vantage-point
// distance ≤ m can be discarded given the query↔vp lower bound lb, at the
// gate's ε-relaxed radius σ_UB/(1+ε). A prune that would not fire at ε=0
// records the relaxed radius as the proven floor of what it discarded
// (every such object is at distance ≥ lb − m > radius). At ε=0 the relaxed
// radius IS σ_UB — decisions are bit-identical to exact.
func (s *searcher) lbPrune(lb, m float64) bool {
	r := s.g.Relax(s.SigmaUB())
	if lb <= m+r {
		return false
	}
	if lb <= m+s.SigmaUB() {
		s.g.MarkRelaxed(r)
	}
	return true
}

// ubPrune is lbPrune's twin for partitions whose objects all have
// vantage-point distance > m, keyed on the query↔vp upper bound ub.
func (s *searcher) ubPrune(ub, m float64) bool {
	r := s.g.Relax(s.SigmaUB())
	if ub >= m-r {
		return false
	}
	if ub >= m-s.SigmaUB() {
		s.g.MarkRelaxed(r)
	}
	return true
}

// pathPrune applies the leaf path-distance prune at the ε-relaxed radius:
// the stored exact d(x, vp_i) and the query's interval pb to vp_i prove
// d(q, x) ≥ max(d − pb.ub, pb.lb − d).
func (s *searcher) pathPrune(d float64, pb vpBound) bool {
	r := s.g.Relax(s.SigmaUB())
	if d-pb.ub <= r && pb.lb-d <= r {
		return false
	}
	if d-pb.ub <= s.SigmaUB() && pb.lb-d <= s.SigmaUB() {
		s.g.MarkRelaxed(r)
	}
	return true
}
