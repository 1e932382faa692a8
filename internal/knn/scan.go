package knn

import (
	"sync/atomic"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

// scanBlock is how many rows Scan bounds in one kernel call: enough that the
// call's fixed cost (the query table's check, σ_UB's cut) is nothing beside
// the rows, few enough that σ_UB, which the cut follows, is never more than a
// block behind.
const scanBlock = 256

// ScanStats reports the work one Scan performed, and is the detail of an
// explained search's report (hence the JSON names). The candidate accounting
// is exact:
//
//	Collected = FilterLBPrunes + CutoffSkips + SketchSkips + FullRetrievals + Unrefined
//
// every candidate the scan collected is either dropped by the σ_UB filter,
// skipped when the sorted refinement hit a lower bound above the best exact
// distance, rejected by the store's sketch before its read, fetched in full,
// or left unrefined because the request's gate said stop (Balanced).
type ScanStats struct {
	// Blocks and BoundsComputed count the kernel's calls and the rows they
	// bounded, every row the gate admitted; Abandoned the bounds it stopped
	// past σ_UB.
	Blocks         int `json:"blocks"`
	BoundsComputed int `json:"bounds_computed"`
	Abandoned      int `json:"abandoned"`
	// Collected is the candidates presented to Add, SigmaUB the radius the
	// scan ended with.
	Collected int     `json:"collected"`
	SigmaUB   float64 `json:"sigma_ub"`
	// Candidates and FilterLBPrunes are what Filter kept and dropped;
	// Unrefined the candidates the gate kept from refinement (the δ cut's
	// tail and the exact budget's).
	Candidates     int `json:"candidates"`
	FilterLBPrunes int `json:"filter_lb_prunes"`
	Unrefined      int `json:"unrefined"`
	RefineStats
	// ScanMS, FilterMS and RefineMS are the wall times of the three phases.
	ScanMS   float64 `json:"scan_ms"`
	FilterMS float64 `json:"filter_ms"`
	RefineMS float64 `json:"refine_ms"`
}

// Balanced reports whether the candidate accounting identity holds.
func (s *ScanStats) Balanced() bool {
	return s.Collected == s.FilterLBPrunes+s.CutoffSkips+s.SketchSkips+s.FullRetrievals+s.Unrefined
}

// ScanTotals is the work of many scans (Totals).
type ScanTotals struct{ Searches, Blocks, Bounds, Abandoned int64 }

// Totals accumulates scans' work from any number of goroutines.
type Totals struct{ searches, blocks, bounds, abandoned atomic.Int64 }

// Add counts one scan.
func (t *Totals) Add(st ScanStats) {
	t.searches.Add(1)
	t.blocks.Add(int64(st.Blocks))
	t.bounds.Add(int64(st.BoundsComputed))
	t.abandoned.Add(int64(st.Abandoned))
}

// Load returns what t has counted.
func (t *Totals) Load() ScanTotals {
	return ScanTotals{t.searches.Load(), t.blocks.Load(), t.bounds.Load(), t.abandoned.Load()}
}

// Scan is fig. 11 over compressed features packed in an arena in sequence-ID
// order (row i is sequence i of store): it bounds every row against the query
// in blocks of scanBlock, collecting candidates while σ_UB falls, then
// Filters and Refines them. The answer is exact for the same reason fig. 11's
// is: a row is dropped only on a lower bound above σ_UB, the k-th smallest
// upper bound of rows already seen, so k rows at least as close exist; and the
// kernel abandons only a row whose lower bound it has proved above σ_UB as it
// stands (spectral.AbandonCut), which Add would drop unfinished.
//
// The gate counts one Visit and one Leaf a row, so a node budget and nprobe
// are row budgets; an exhausted budget stops the scan and refines what it
// collected (with the gate's grace of k exact distances), a dead context
// aborts it with the context's error. A seeded gate starts σ_UB and the
// refine at its seed. The stats are valid on every return.
func Scan(q *spectral.Prepared, k int, arena *spectral.Arena, store seqstore.Store, g *lifecycle.Gate) ([]Result, ScanStats, error) {
	return scan(q, k, arena, store, g, spectral.AbandonCut)
}

// scan is Scan with the kernel's cut as a function of σ_UB: every Scan passes
// spectral.AbandonCut, and the test that pins what abandoning must not change
// passes +Inf.
func scan(q *spectral.Prepared, k int, arena *spectral.Arena, store seqstore.Store, g *lifecycle.Gate, cut func(sigmaUB float64) float64) ([]Result, ScanStats, error) {
	var st ScanStats
	began := time.Now()
	s := Get(k)
	defer s.Release()
	s.Seed(g.Seed(), len(q.Values()))
	lb, ub := s.BoundBufs(scanBlock)
	var refs [scanBlock]int32
	ctx, n := q.Context(), arena.Len()
	for lo, stop := 0, false; lo < n && !stop; lo += scanBlock {
		m := min(scanBlock, n-lo)
		for i := range m {
			ok, err := g.Visit()
			if err != nil {
				return nil, st, err
			}
			if !ok || !g.Leaf() {
				m, stop = i, true
				break
			}
			refs[i] = int32(lo + i)
		}
		if m == 0 {
			break
		}
		abandoned, err := arena.BoundsBlockCut(ctx, refs[:m], true, cut(s.SigmaUB()), lb, ub)
		if err != nil {
			return nil, st, err
		}
		st.Blocks++
		st.BoundsComputed += m
		st.Abandoned += abandoned
		for i := range m {
			s.Add(lo+i, lb[i], ub[i])
		}
	}
	// A budget that ran out mid-scan still refines up to k candidates, so a
	// truncated search returns refined best-so-far neighbours.
	if g.Truncated() {
		g.Grace(k)
	}
	st.Collected, st.SigmaUB = s.Collected(), s.SigmaUB()
	phase := time.Now()
	st.ScanMS = ms(phase.Sub(began))

	st.Candidates, st.FilterLBPrunes = s.Filter(g)
	st.Unrefined = st.Candidates - s.Collected() // the δ cut's tail
	now := time.Now()
	st.FilterMS, phase = ms(now.Sub(phase)), now

	res, rs, err := s.Refine(q, store, g)
	st.RefineStats = rs
	st.Unrefined += rs.BudgetSkips
	st.RefineMS = ms(time.Since(phase))
	return res, st, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
