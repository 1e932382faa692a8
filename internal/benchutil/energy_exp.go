package benchutil

import (
	"io"

	"repro/internal/spectral"
)

// EnergyRow is one row of the §8 variable-coefficient sweep: representations
// keep best coefficients until `Fraction` of each sequence's energy is
// captured.
type EnergyRow struct {
	// Fraction is the captured-energy target.
	Fraction float64
	// MeanCoeffs is the mean number of kept coefficients per sequence.
	MeanCoeffs float64
	// MinCoeffs and MaxCoeffs show the per-sequence adaptivity spread.
	MinCoeffs, MaxCoeffs int
	// MeanDoubles is the mean storage under the §7.1 accounting.
	MeanDoubles float64
	// FractionExamined is the fig. 22-style pruning fraction for 1NN.
	FractionExamined float64
}

// RunEnergySweep evaluates the §8 extension over the first `size` corpus
// sequences: for each energy target it builds variable-size BestMinError
// representations and measures their storage and pruning power with the
// same procedure as fig. 22.
func RunEnergySweep(c *Corpus, size int, fractions []float64) ([]EnergyRow, error) {
	if size > len(c.Data) {
		size = len(c.Data)
	}
	rows := make([]EnergyRow, 0, len(fractions))
	for _, frac := range fractions {
		row := EnergyRow{Fraction: frac, MinCoeffs: 1 << 30}
		comp := make([]*spectral.Compressed, size)
		for i := 0; i < size; i++ {
			cc, err := spectral.CompressEnergy(c.Spectra[i], frac)
			if err != nil {
				return nil, err
			}
			comp[i] = cc
			k := len(cc.Positions)
			row.MeanCoeffs += float64(k)
			row.MeanDoubles += cc.MemoryDoubles()
			if k < row.MinCoeffs {
				row.MinCoeffs = k
			}
			if k > row.MaxCoeffs {
				row.MaxCoeffs = k
			}
		}
		row.MeanCoeffs /= float64(size)
		row.MeanDoubles /= float64(size)
		total := 0
		for qi := range c.Queries {
			examined, err := pruneSearch(c, comp, c.QuerySpectra[qi], qi, size)
			if err != nil {
				return nil, err
			}
			total += examined
		}
		row.FractionExamined = float64(total) / float64(len(c.Queries)) / float64(size)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintEnergySweep renders the sweep table.
func PrintEnergySweep(w io.Writer, rows []EnergyRow, size int) {
	fprintf(w, "§8 extension — variable coefficients by captured energy (N=%d)\n", size)
	fprintf(w, "  %8s %12s %8s %8s %12s %10s\n",
		"energy", "mean-coeffs", "min", "max", "mean-doubles", "F(1NN)")
	for _, r := range rows {
		fprintf(w, "  %7.0f%% %12.1f %8d %8d %12.1f %10.4f\n",
			100*r.Fraction, r.MeanCoeffs, r.MinCoeffs, r.MaxCoeffs, r.MeanDoubles, r.FractionExamined)
	}
}
