// Package benchutil is the experiment harness behind cmd/experiments and
// the repository-level benchmarks: it regenerates every table and figure of
// the paper's evaluation (§7) on the synthetic query-log corpus and prints
// paper-style rows. Each experiment is a function returning a structured
// result plus a Print method, so benchmarks can assert on the numbers and
// the CLI can render them.
package benchutil

import (
	"fmt"
	"io"

	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/spectral"
)

// Corpus is a standardized dataset plus held-out queries, with spectra
// precomputed once.
type Corpus struct {
	// Data are the standardized database sequences.
	Data []*series.Series
	// Queries are standardized held-out query sequences ("sequences not
	// found in the database", §7).
	Queries []*series.Series
	// Spectra[i] is the half-spectrum of Data[i].
	Spectra []*spectral.HalfSpectrum
	// QuerySpectra[i] is the half-spectrum of Queries[i].
	QuerySpectra []*spectral.HalfSpectrum
}

// NewCorpus builds a corpus of n database series and q queries of the given
// length. The generator mixes all archetype shape classes (weekly, lunar,
// seasonal, news, noise — see package querylog).
func NewCorpus(n, q, seqLen int, seed int64) (*Corpus, error) {
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, seed)
	c := &Corpus{
		Data:    querylog.StandardizeAll(g.Dataset(n)),
		Queries: querylog.StandardizeAll(g.Queries(q)),
	}
	values := make([][]float64, 0, len(c.Data)+len(c.Queries))
	for _, s := range c.Data {
		values = append(values, s.Values)
	}
	for _, s := range c.Queries {
		values = append(values, s.Values)
	}
	specs, err := spectral.FromValuesBatch(values)
	if err != nil {
		return nil, err
	}
	c.Spectra = specs[:len(c.Data)]
	c.QuerySpectra = specs[len(c.Data):]
	return c, nil
}

// fprintf is fmt.Fprintf with the error intentionally discarded; experiment
// printers write to in-memory or terminal writers where short writes are not
// actionable.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// Sparkline renders values as a one-line unicode chart of the given width,
// used to echo the fig. 1–3 demand curves in a terminal.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width < 1 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	out := make([]rune, width)
	per := len(values) / width
	if per < 1 {
		per = 1
	}
	for i := 0; i < width; i++ {
		start := i * per
		if start >= len(values) {
			out[i] = ramp[0]
			continue
		}
		end := start + per
		if end > len(values) {
			end = len(values)
		}
		m := values[start]
		for _, v := range values[start:end] {
			if v > m {
				m = v
			}
		}
		idx := int(float64(len(ramp)-1) * (m - lo) / (hi - lo))
		out[i] = ramp[idx]
	}
	return string(out)
}
