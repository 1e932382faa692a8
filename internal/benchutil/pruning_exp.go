package benchutil

import (
	"io"
	"math"
	"sort"

	"repro/internal/series"
	"repro/internal/spectral"
)

// PruneCell is one (dataset size, budget, method) cell of fig. 22: the
// average fraction F of database objects whose full representation had to be
// examined to answer a 1NN query.
type PruneCell struct {
	DatasetSize int
	Budget      int
	Method      spectral.Method
	// Fraction is the mean of examined/N over all queries.
	Fraction float64
}

// PruningExperiment reproduces fig. 22.
type PruningExperiment struct {
	Cells []PruneCell
	// Queries is the number of 1NN queries averaged per cell.
	Queries int
}

// RunPruning measures F with the paper's §7.3 procedure, independent of any
// index structure: per query compute every object's lower and upper bound,
// prune objects whose LB exceeds the smallest UB, then walk the survivors in
// increasing-LB order computing exact distances (early-terminating when the
// next LB exceeds the best-so-far match). F counts the exact-distance
// examinations.
func RunPruning(c *Corpus, sizes, budgets []int, methods []spectral.Method) (*PruningExperiment, error) {
	exp := &PruningExperiment{Queries: len(c.Queries)}
	for _, size := range sizes {
		if size > len(c.Data) {
			size = len(c.Data)
		}
		for _, budget := range budgets {
			for _, m := range methods {
				// Compress the first `size` objects.
				comp := make([]*spectral.Compressed, size)
				for i := 0; i < size; i++ {
					var err error
					comp[i], err = spectral.Compress(c.Spectra[i], m, budget)
					if err != nil {
						return nil, err
					}
				}
				totalFrac := 0.0
				for qi, q := range c.QuerySpectra {
					examined, err := pruneSearch(c, comp, q, qi, size)
					if err != nil {
						return nil, err
					}
					totalFrac += float64(examined) / float64(size)
				}
				exp.Cells = append(exp.Cells, PruneCell{
					DatasetSize: size,
					Budget:      budget,
					Method:      m,
					Fraction:    totalFrac / float64(len(c.Queries)),
				})
			}
		}
	}
	return exp, nil
}

// PruneSearch1NN runs the §7.3 measurement procedure for corpus query qi
// against the given compressed objects and returns the number of full
// sequences examined. Exported for the ablation benchmarks.
func PruneSearch1NN(c *Corpus, comp []*spectral.Compressed, qi int) (int, error) {
	return pruneSearch(c, comp, c.QuerySpectra[qi], qi, len(comp))
}

// pruneSearch runs one 1NN query over corpus prefix [0,size) and returns
// the number of full sequences examined.
func pruneSearch(c *Corpus, comp []*spectral.Compressed, q *spectral.HalfSpectrum, qi, size int) (int, error) {
	values := make([][]float64, size)
	for i := 0; i < size; i++ {
		values[i] = c.Data[i].Values
	}
	return pruneSearchValues(values, c.Queries[qi].Values, comp[:size], q)
}

// pruneSearchValues is the §7.3 procedure over explicit inputs: compressed
// objects (any basis), the query's matching decomposition, and the raw
// values for exact refinement.
func pruneSearchValues(data [][]float64, query []float64, comp []*spectral.Compressed, q *spectral.HalfSpectrum) (int, error) {
	type cand struct {
		id     int
		lb, ub float64
	}
	size := len(comp)
	cands := make([]cand, size)
	sub := math.Inf(1) // smallest upper bound
	ctx := spectral.NewQueryContext(q)
	for i := 0; i < size; i++ {
		lb, ub, err := comp[i].BoundsFast(ctx)
		if err != nil {
			return 0, err
		}
		cands[i] = cand{id: i, lb: lb, ub: ub}
		if ub < sub {
			sub = ub
		}
	}
	// Prune by SUB, then examine survivors in increasing-LB order.
	kept := cands[:0]
	for _, cd := range cands {
		if cd.lb <= sub {
			kept = append(kept, cd)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a].lb < kept[b].lb })
	best := math.Inf(1)
	examined := 0
	for _, cd := range kept {
		if cd.lb > best {
			break
		}
		examined++
		d, abandoned, err := series.EuclideanEarlyAbandon(query, data[cd.id], best)
		if err != nil {
			return 0, err
		}
		if !abandoned && d < best {
			best = d
		}
	}
	return examined, nil
}

// Cell returns the cell for (size, budget, method).
func (e *PruningExperiment) Cell(size, budget int, m spectral.Method) (PruneCell, bool) {
	for _, c := range e.Cells {
		if c.DatasetSize == size && c.Budget == budget && c.Method == m {
			return c, true
		}
	}
	return PruneCell{}, false
}

// Print renders the fig. 22 table.
func (e *PruningExperiment) Print(w io.Writer, sizes, budgets []int, methods []spectral.Method) {
	fprintf(w, "Fig. 22 — Fraction of database examined for 1NN (avg over %d queries)\n", e.Queries)
	for _, size := range sizes {
		fprintf(w, "\n  Dataset size = %d\n", size)
		fprintf(w, "    %-14s", "doubles/seq")
		for _, m := range methods {
			fprintf(w, " %14s", m)
		}
		fprintf(w, " %14s\n", "vs-next-best")
		for _, b := range budgets {
			fprintf(w, "    2*(%2d)+1      ", b)
			var fracs []float64
			for _, m := range methods {
				cell, _ := e.Cell(size, b, m)
				fracs = append(fracs, cell.Fraction)
				fprintf(w, " %14.4f", cell.Fraction)
			}
			// Relative reduction of the last method vs the best other.
			if len(fracs) >= 2 {
				bestOther := math.Inf(1)
				for _, f := range fracs[:len(fracs)-1] {
					if f < bestOther {
						bestOther = f
					}
				}
				if bestOther > 0 {
					fprintf(w, " %13.1f%%", 100*(fracs[len(fracs)-1]-bestOther)/bestOther)
				}
			}
			fprintf(w, "\n")
		}
	}
}
