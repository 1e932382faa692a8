package vptree

// LevelExplain is the per-depth accounting of one explained search: how the
// traversal spent its work at each level of the tree (depth 0 is the root).
type LevelExplain struct {
	Depth int `json:"depth"`
	// InternalNodes and Leaves count nodes visited at this depth.
	InternalNodes int `json:"internal_nodes"`
	Leaves        int `json:"leaves"`
	// BoundsComputed counts lower/upper bound pair evaluations at this depth
	// (one per vantage point plus one per leaf entry).
	BoundsComputed int `json:"bounds_computed"`
	// Candidates counts compressed objects collected at this depth.
	Candidates int `json:"candidates"`
	// LBSubtreePrunes and UBSubtreePrunes count subtrees skipped at this
	// depth because the lower bound (lb > median + σ_UB) or the upper bound
	// (ub < median − σ_UB) proved a child irrelevant.
	LBSubtreePrunes int `json:"lb_subtree_prunes"`
	UBSubtreePrunes int `json:"ub_subtree_prunes"`
	// GuidedDescentHits counts internal nodes at this depth where the §4.1
	// annulus-overlap heuristic visited the right child first.
	GuidedDescentHits int `json:"guided_descent_hits"`
}

// Explain is the structured report of one explained search: where the
// candidates came from level by level, which bound each prune is attributed
// to, and how the refinement phase disposed of the survivors. The candidate
// accounting is exact:
//
//	Collected = FilterLBPrunes + CutoffSkips + SketchSkips + FullRetrievals + Unrefined
//
// i.e. every compressed object collected during traversal is either pruned
// by the final lower-bound filter, skipped when the sorted refinement loop
// hit a lower bound above the best exact distance, rejected by the store's
// sketch just before its read, fetched in full, or left unrefined because the
// request's gate said stop (the last term is zero for an unlimited exact
// search).
type Explain struct {
	// K is the requested neighbour count.
	K int `json:"k"`
	// Method and Budget describe the compressed representation the bounds
	// were evaluated against (e.g. "BestMinError" vs the GEMINI/Wang
	// baselines selected via Options.Method).
	Method string `json:"method"`
	Budget int    `json:"budget"`
	// PaperBounds reports whether the fig. 9 bounds (true) or the provably
	// sound SafeBounds (false) were used.
	PaperBounds bool `json:"paper_bounds"`
	// TreeSize and TreeHeight describe the index that was searched.
	TreeSize   int `json:"tree_size"`
	TreeHeight int `json:"tree_height"`

	// Levels is the per-depth traversal accounting (index = depth).
	Levels []LevelExplain `json:"levels"`

	// Collected counts compressed objects collected during traversal
	// (vantage points + leaf entries whose bounds were taken as candidates).
	Collected int `json:"collected"`
	// FilterLBPrunes counts collected candidates discarded by the final
	// σ_UB lower-bound filter before refinement.
	FilterLBPrunes int `json:"filter_lb_prunes"`
	// CutoffSkips counts surviving candidates never fetched because the
	// refinement loop's lower-bound cutoff broke first.
	CutoffSkips int `json:"cutoff_skips"`
	// SketchSkips counts surviving candidates never fetched because the
	// store's sketch proved them farther than the k-th best distance.
	SketchSkips int `json:"sketch_skips"`
	// FullRetrievals counts uncompressed sequences fetched for refinement.
	FullRetrievals int `json:"full_retrievals"`
	// Unrefined counts surviving candidates the gate kept from refinement:
	// the tail a δ sampled-stop cut off plus those still unread when the
	// exact-distance budget ran out.
	Unrefined int `json:"unrefined"`
	// ExactDistances and EarlyAbandons count exact Euclidean evaluations
	// during refinement and how many of them abandoned early.
	ExactDistances int `json:"exact_distances"`
	EarlyAbandons  int `json:"early_abandons"`
	// SigmaUB is the final pruning threshold (the k-th smallest candidate
	// upper bound seen during traversal).
	SigmaUB float64 `json:"sigma_ub"`

	// TraverseMS, FilterMS and RefineMS are the wall times of the three
	// search phases.
	TraverseMS float64 `json:"traverse_ms"`
	FilterMS   float64 `json:"filter_ms"`
	RefineMS   float64 `json:"refine_ms"`

	// Stats is the flat per-search work summary (same totals the engine
	// promotes into cumulative counters).
	Stats Stats `json:"stats"`
}

// level returns the accounting row for depth d, growing Levels as needed.
func (e *Explain) level(d int) *LevelExplain {
	for len(e.Levels) <= d {
		e.Levels = append(e.Levels, LevelExplain{Depth: len(e.Levels)})
	}
	return &e.Levels[d]
}

// TotalSubtreePrunes sums the per-level subtree prunes attributed to each
// bound.
func (e *Explain) TotalSubtreePrunes() (lb, ub int) {
	for _, l := range e.Levels {
		lb += l.LBSubtreePrunes
		ub += l.UBSubtreePrunes
	}
	return lb, ub
}

// Balanced reports whether the candidate accounting identity holds:
// Collected = FilterLBPrunes + CutoffSkips + SketchSkips + FullRetrievals +
// Unrefined.
func (e *Explain) Balanced() bool {
	return e.Collected == e.FilterLBPrunes+e.CutoffSkips+e.SketchSkips+e.FullRetrievals+e.Unrefined
}
