package benchutil

import (
	"fmt"
	"io"
	"math"

	"repro/internal/spectral"
)

// BoundsResult is one (budget, method) cell of the fig. 20/21 experiment:
// cumulative lower/upper bounds over random pairs, against the cumulative
// true Euclidean distance.
type BoundsResult struct {
	// Budget is the memory budget c in "2·c+1 doubles".
	Budget int
	// Method is the representation measured.
	Method spectral.Method
	// CumLB and CumUB are cumulative bounds over all pairs (CumUB is +Inf
	// for GEMINI, which has no upper bound).
	CumLB, CumUB float64
}

// BoundsExperiment reproduces figs. 20–21: for Pairs random
// (query, database-object) pairs it accumulates each method's lower and
// upper bounds and the true distance.
type BoundsExperiment struct {
	// CumEuclidean is the cumulative true distance over the sampled pairs.
	CumEuclidean float64
	// Pairs is the number of pairs measured.
	Pairs int
	// Cells holds one result per (budget, method).
	Cells []BoundsResult
}

// RunBounds measures cumulative bound tightness over `pairs` random pairs
// drawn round-robin from the corpus, for every method at every budget.
func RunBounds(c *Corpus, budgets []int, pairs int) (*BoundsExperiment, error) {
	if len(c.Data) == 0 || len(c.Queries) == 0 {
		return nil, fmt.Errorf("benchutil: empty corpus")
	}
	exp := &BoundsExperiment{Pairs: pairs}

	type pair struct{ di, qi int }
	ps := make([]pair, pairs)
	for i := range ps {
		ps[i] = pair{di: i % len(c.Data), qi: i % len(c.Queries)}
	}
	for _, p := range ps {
		d, err := spectral.Distance(c.Spectra[p.di], c.QuerySpectra[p.qi])
		if err != nil {
			return nil, err
		}
		exp.CumEuclidean += d
	}
	for _, budget := range budgets {
		for _, m := range spectral.Methods() {
			cell := BoundsResult{Budget: budget, Method: m}
			// Compress each distinct database object once per cell.
			cache := map[int]*spectral.Compressed{}
			for _, p := range ps {
				cc, ok := cache[p.di]
				if !ok {
					var err error
					cc, err = spectral.Compress(c.Spectra[p.di], m, budget)
					if err != nil {
						return nil, err
					}
					cache[p.di] = cc
				}
				lb, ub, err := cc.Bounds(c.QuerySpectra[p.qi])
				if err != nil {
					return nil, err
				}
				cell.CumLB += lb
				cell.CumUB += ub
			}
			exp.Cells = append(exp.Cells, cell)
		}
	}
	return exp, nil
}

// Cell returns the result for (budget, method).
func (e *BoundsExperiment) Cell(budget int, m spectral.Method) (BoundsResult, bool) {
	for _, c := range e.Cells {
		if c.Budget == budget && c.Method == m {
			return c, true
		}
	}
	return BoundsResult{}, false
}

// LBImprovement returns the fig. 20 headline number for a budget: the
// relative improvement of BestMinError's cumulative LB over the next best
// non-best method (Wang), in percent.
func (e *BoundsExperiment) LBImprovement(budget int) float64 {
	bme, ok1 := e.Cell(budget, spectral.BestMinError)
	wang, ok2 := e.Cell(budget, spectral.Wang)
	if !ok1 || !ok2 || wang.CumLB == 0 {
		return math.NaN()
	}
	return 100 * (bme.CumLB - wang.CumLB) / wang.CumLB
}

// UBImprovement returns the fig. 21 headline number for a budget: the
// relative tightening of BestMinError's cumulative UB versus Wang's, in
// percent (positive = tighter).
func (e *BoundsExperiment) UBImprovement(budget int) float64 {
	bme, ok1 := e.Cell(budget, spectral.BestMinError)
	wang, ok2 := e.Cell(budget, spectral.Wang)
	if !ok1 || !ok2 || wang.CumUB == 0 {
		return math.NaN()
	}
	return 100 * (wang.CumUB - bme.CumUB) / wang.CumUB
}

// PrintLB renders the fig. 20 panels.
func (e *BoundsExperiment) PrintLB(w io.Writer, budgets []int) {
	fprintf(w, "Fig. 20 — Lower-bound tightness (cumulative over %d pairs)\n", e.Pairs)
	fprintf(w, "Full Euclidean (reference): %.0f\n", e.CumEuclidean)
	for _, b := range budgets {
		fprintf(w, "\n  Memory = 2*(%d)+1 doubles   Improvement(BestMinError vs Wang) = %.3f%%\n",
			b, e.LBImprovement(b))
		for _, m := range spectral.Methods() {
			if cell, ok := e.Cell(b, m); ok {
				fprintf(w, "    %-22s %10.0f\n", "LB_"+m.String(), cell.CumLB)
			}
		}
	}
}

// PrintUB renders the fig. 21 panels.
func (e *BoundsExperiment) PrintUB(w io.Writer, budgets []int) {
	fprintf(w, "Fig. 21 — Upper-bound tightness (cumulative over %d pairs)\n", e.Pairs)
	fprintf(w, "Full Euclidean (reference): %.0f\n", e.CumEuclidean)
	for _, b := range budgets {
		fprintf(w, "\n  Memory = 2*(%d)+1 doubles   Improvement(BestMinError vs Wang) = %.3f%%\n",
			b, e.UBImprovement(b))
		for _, m := range spectral.Methods() {
			cell, ok := e.Cell(b, m)
			if !ok {
				continue
			}
			if math.IsInf(cell.CumUB, 1) {
				fprintf(w, "    %-22s %10s\n", "UB_"+m.String(), "N/A")
				continue
			}
			fprintf(w, "    %-22s %10.0f\n", "UB_"+m.String(), cell.CumUB)
		}
	}
}
