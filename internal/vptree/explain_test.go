package vptree

import "testing"

// TestSearchExplainAccounting checks the candidate-accounting identity and
// that the per-level rows sum to the flat stats.
func TestSearchExplainAccounting(t *testing.T) {
	fx := buildFixture(t, 120, 256, Options{Budget: 12}, 3)
	for _, q := range fx.queries {
		rep := new(Explain)
		st := searchWith(t, fx.tree, q, 4, 0, fx.tree.Features(), fx.store, rep).st
		if !rep.Balanced() {
			t.Errorf("accounting identity broken: collected %d != lb %d + skip %d + sketch %d + full %d",
				rep.Collected, rep.FilterLBPrunes, rep.CutoffSkips, rep.SketchSkips, rep.FullRetrievals)
		}
		// Stats.Candidates counts survivors of the σ_UB filter, so the raw
		// collection count is survivors plus filter prunes.
		if rep.Collected != st.Candidates+rep.FilterLBPrunes {
			t.Errorf("Collected = %d, want %d survivors + %d filter prunes",
				rep.Collected, st.Candidates, rep.FilterLBPrunes)
		}
		if rep.FullRetrievals != st.FullRetrievals {
			t.Errorf("FullRetrievals = %d, Stats.FullRetrievals = %d", rep.FullRetrievals, st.FullRetrievals)
		}
		if rep.ExactDistances != st.ExactDistances {
			t.Errorf("ExactDistances = %d, Stats.ExactDistances = %d", rep.ExactDistances, st.ExactDistances)
		}
		if rep.TreeSize != fx.tree.Len() || rep.TreeHeight != fx.tree.Height() {
			t.Errorf("tree shape %d/%d, want %d/%d",
				rep.TreeSize, rep.TreeHeight, fx.tree.Len(), fx.tree.Height())
		}
		if rep.K != 4 || rep.Method == "" {
			t.Errorf("report header K=%d Method=%q", rep.K, rep.Method)
		}

		var nodes, bounds, cands, lbSub, ubSub, guided int
		for i, l := range rep.Levels {
			if l.Depth != i {
				t.Errorf("level %d has Depth %d", i, l.Depth)
			}
			nodes += l.InternalNodes + l.Leaves
			bounds += l.BoundsComputed
			cands += l.Candidates
			lbSub += l.LBSubtreePrunes
			ubSub += l.UBSubtreePrunes
			guided += l.GuidedDescentHits
		}
		if nodes != st.NodesVisited {
			t.Errorf("per-level nodes = %d, Stats.NodesVisited = %d", nodes, st.NodesVisited)
		}
		if bounds != st.BoundsComputed {
			t.Errorf("per-level bounds = %d, Stats.BoundsComputed = %d", bounds, st.BoundsComputed)
		}
		if cands != rep.Collected {
			t.Errorf("per-level candidates = %d, Collected = %d", cands, rep.Collected)
		}
		if guided != st.GuidedDescentHits {
			t.Errorf("per-level guided hits = %d, Stats.GuidedDescentHits = %d", guided, st.GuidedDescentHits)
		}
		gotLB, gotUB := rep.TotalSubtreePrunes()
		if gotLB != lbSub || gotUB != ubSub {
			t.Errorf("TotalSubtreePrunes = %d/%d, want %d/%d", gotLB, gotUB, lbSub, ubSub)
		}
		if rep.TraverseMS < 0 || rep.FilterMS < 0 || rep.RefineMS < 0 {
			t.Errorf("negative phase wall: %v %v %v", rep.TraverseMS, rep.FilterMS, rep.RefineMS)
		}
	}
}

// TestSearchExplainSigmaUB checks that the reported threshold actually
// separates filtered candidates from survivors: every full retrieval's lower
// bound must be <= sigma_ub.
func TestSearchExplainSigmaUB(t *testing.T) {
	fx := buildFixture(t, 100, 256, Options{Budget: 10}, 5)
	rep := new(Explain)
	searchWith(t, fx.tree, fx.queries[0], 3, 0, fx.tree.Features(), fx.store, rep)
	if rep.SigmaUB <= 0 {
		t.Errorf("SigmaUB = %v, want > 0", rep.SigmaUB)
	}
	if rep.FilterLBPrunes+rep.CutoffSkips+rep.SketchSkips+rep.FullRetrievals == 0 {
		t.Error("explain recorded no candidate dispositions at all")
	}
}
