package benchutil

import (
	"io"

	"repro/internal/spectral"
)

// BasisRow compares one orthogonal decomposition at one budget: the §3
// claim that the method generalizes "to any class of orthogonal
// decompositions (such as wavelets, PCA, etc.) with minimal or no
// adjustments", quantified.
type BasisRow struct {
	Basis  string
	Budget int
	// MeanReconErr is the mean best-coefficient reconstruction error.
	MeanReconErr float64
	// FractionExamined is the fig. 22-style 1NN pruning fraction.
	FractionExamined float64
}

// RunBasisComparison evaluates BestMinError compression under the DFT and
// Haar bases over the first `size` corpus sequences, at each budget.
func RunBasisComparison(c *Corpus, size int, budgets []int) ([]BasisRow, error) {
	if size > len(c.Data) {
		size = len(c.Data)
	}
	values := make([][]float64, size)
	for i := 0; i < size; i++ {
		values[i] = c.Data[i].Values
	}
	// Haar decompositions of data and queries (DFT ones are precomputed on
	// the corpus).
	haar := make([]*spectral.HalfSpectrum, size)
	for i := 0; i < size; i++ {
		h, err := spectral.FromValuesHaar(values[i])
		if err != nil {
			return nil, err
		}
		haar[i] = h
	}
	haarQ := make([]*spectral.HalfSpectrum, len(c.Queries))
	for i, s := range c.Queries {
		h, err := spectral.FromValuesHaar(s.Values)
		if err != nil {
			return nil, err
		}
		haarQ[i] = h
	}

	var rows []BasisRow
	for _, budget := range budgets {
		for _, basis := range []struct {
			name  string
			specs []*spectral.HalfSpectrum
			query []*spectral.HalfSpectrum
		}{
			{"DFT", c.Spectra[:size], c.QuerySpectra},
			{"Haar", haar, haarQ},
		} {
			row := BasisRow{Basis: basis.name, Budget: budget}
			comp := make([]*spectral.Compressed, size)
			for i := 0; i < size; i++ {
				cc, err := spectral.Compress(basis.specs[i], spectral.BestMinError, budget)
				if err != nil {
					return nil, err
				}
				comp[i] = cc
				re, err := cc.ReconstructionError(values[i])
				if err != nil {
					return nil, err
				}
				row.MeanReconErr += re
			}
			row.MeanReconErr /= float64(size)
			total := 0
			for qi := range c.Queries {
				examined, err := pruneSearchValues(values, c.Queries[qi].Values, comp, basis.query[qi])
				if err != nil {
					return nil, err
				}
				total += examined
			}
			row.FractionExamined = float64(total) / float64(len(c.Queries)) / float64(size)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintBasisComparison renders the comparison table.
func PrintBasisComparison(w io.Writer, rows []BasisRow, size int) {
	fprintf(w, "Orthogonal-decomposition generalization (§3) — BestMinError, N=%d\n", size)
	fprintf(w, "  %8s %8s %14s %10s\n", "basis", "budget", "mean-recon-E", "F(1NN)")
	for _, r := range rows {
		fprintf(w, "  %8s %8d %14.2f %10.4f\n", r.Basis, r.Budget, r.MeanReconErr, r.FractionExamined)
	}
}
