package benchutil

import (
	"io"
	"math/cmplx"
	"sort"
	"time"

	"repro/internal/burst"
	"repro/internal/fft"
	"repro/internal/periods"
	"repro/internal/querylog"
	"repro/internal/spectral"
)

// PrintIntro echoes figs. 1–3: the demand curves of "cinema", "easter" and
// "elvis" as terminal sparklines.
func PrintIntro(w io.Writer, seed int64) {
	fprintf(w, "Figs. 1-3 — Query demand curves (2000-2002, synthetic MSN logs)\n")
	g := querylog.New(seed)
	for _, name := range []string{querylog.Cinema, querylog.Easter, querylog.Elvis} {
		s := g.Exemplar(name)
		fprintf(w, "  %-8s |%s|\n", name, Sparkline(s.Values, 96))
	}
}

// Fig4Row is one DFT component of the decomposition illustration.
type Fig4Row struct {
	Bin       int
	Period    float64
	Magnitude float64
}

// RunFig4 reproduces fig. 4: the first 7 DFT components of a signal.
func RunFig4(seed int64) ([]Fig4Row, error) {
	g := querylog.New(seed)
	s := g.Exemplar(querylog.Cinema).Standardized()
	X, err := s.Spectrum()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, 7)
	for k := 0; k < 7 && k < len(X); k++ {
		rows = append(rows, Fig4Row{
			Bin:       k,
			Period:    fft.PeriodOf(k, s.Len()),
			Magnitude: cmplx.Abs(X[k]),
		})
	}
	return rows, nil
}

// PrintFig4 renders the fig. 4 rows.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fprintf(w, "Fig. 4 — First 7 DFT components of 'cinema' (standardized)\n")
	fprintf(w, "  %4s %10s %10s\n", "bin", "period", "|X(k)|")
	for _, r := range rows {
		fprintf(w, "  a%-3d %10.2f %10.4f\n", r.Bin, r.Period, r.Magnitude)
	}
}

// Fig5Row compares reconstruction error using the first 5 coefficients vs
// the best 4 for one query (equal-memory comparison of §3.1).
type Fig5Row struct {
	Query     string
	ErrFirst5 float64
	ErrBest4  float64
}

// RunFig5 reproduces fig. 5 on the four queries the paper shows.
func RunFig5(seed int64) ([]Fig5Row, error) {
	g := querylog.New(seed)
	names := []string{querylog.Athens2004, querylog.Bank, querylog.Cinema, querylog.President}
	rows := make([]Fig5Row, 0, len(names))
	for _, name := range names {
		s := g.Exemplar(name).Standardized()
		h, err := spectral.FromValues(s.Values)
		if err != nil {
			return nil, err
		}
		first, err := spectral.Compress(h, spectral.Wang, 5)
		if err != nil {
			return nil, err
		}
		best, err := spectral.Compress(h, spectral.BestError, 5) // ⌊5/1.125⌋ = 4 best
		if err != nil {
			return nil, err
		}
		ef, err := first.ReconstructionError(s.Values)
		if err != nil {
			return nil, err
		}
		eb, err := best.ReconstructionError(s.Values)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{Query: name, ErrFirst5: ef, ErrBest4: eb})
	}
	return rows, nil
}

// PrintFig5 renders the fig. 5 rows.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fprintf(w, "Fig. 5 — Reconstruction error: first 5 vs best 4 coefficients\n")
	fprintf(w, "  %-14s %12s %12s\n", "query", "E(first 5)", "E(best 4)")
	for _, r := range rows {
		fprintf(w, "  %-14s %12.2f %12.2f\n", r.Query, r.ErrFirst5, r.ErrBest4)
	}
}

// PrintTable1 renders Table 1: the equal-memory accounting for each method.
func PrintTable1(w io.Writer, budgets []int) {
	fprintf(w, "Table 1 — Storage layout per method (equal memory budgets)\n")
	layout := map[spectral.Method]string{
		spectral.GEMINI:       "first coeffs + middle coeff",
		spectral.Wang:         "first coeffs + error",
		spectral.BestMin:      "best coeffs + middle coeff",
		spectral.BestError:    "best coeffs + error",
		spectral.BestMinError: "best coeffs + error",
	}
	fprintf(w, "  %-14s %-30s", "method", "layout")
	for _, b := range budgets {
		fprintf(w, " c=%-4d", b)
	}
	fprintf(w, "\n")
	for _, m := range spectral.Methods() {
		fprintf(w, "  %-14s %-30s", m, layout[m])
		for _, b := range budgets {
			fprintf(w, " %-6d", spectral.CoeffBudget(m, b))
		}
		fprintf(w, "\n")
	}
}

// Fig12Row reports how exponentially distributed the periodogram powers of
// one non-periodic sequence are.
type Fig12Row struct {
	Name string
	// Lambda is the fitted exponential rate.
	Lambda float64
	// FitError is the mean |empirical − fitted| density gap.
	FitError float64
	// RelFitError is FitError normalized by the fitted density at 0
	// (= Lambda), making rows comparable.
	RelFitError float64
}

// RunFig12 reproduces fig. 12 for three non-periodic sequences.
func RunFig12(seed int64) ([]Fig12Row, error) {
	g := querylog.New(seed)
	rows := make([]Fig12Row, 0, 3)
	for _, name := range []string{querylog.RandomWalkName, querylog.WhiteNoiseName, querylog.DudleyMoore} {
		s := g.Exemplar(name)
		det, err := periods.Detect(s.Values, periods.DefaultConfidence)
		if err != nil {
			return nil, err
		}
		h, dist, err := det.PowerHistogram(30)
		if err != nil {
			return nil, err
		}
		fe := h.ExponentialFitError(dist)
		rows = append(rows, Fig12Row{
			Name:        name,
			Lambda:      dist.Lambda,
			FitError:    fe,
			RelFitError: fe / dist.Lambda,
		})
	}
	return rows, nil
}

// PrintFig12 renders the fig. 12 rows.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fprintf(w, "Fig. 12 — PSD histograms of non-periodic sequences vs exponential fit\n")
	fprintf(w, "  %-12s %10s %10s %12s\n", "sequence", "lambda", "fit-err", "rel-fit-err")
	for _, r := range rows {
		fprintf(w, "  %-12s %10.3f %10.4f %12.4f\n", r.Name, r.Lambda, r.FitError, r.RelFitError)
	}
}

// Fig13Row holds the detected periods of one query.
type Fig13Row struct {
	Query     string
	Threshold float64
	Top       []periods.Period
}

// RunFig13 reproduces fig. 13: automatic period discovery for the four
// example queries.
func RunFig13(seed int64) ([]Fig13Row, error) {
	g := querylog.New(seed)
	names := []string{querylog.Cinema, querylog.FullMoon, querylog.Nordstrom, querylog.DudleyMoore}
	rows := make([]Fig13Row, 0, len(names))
	for _, name := range names {
		s := g.Exemplar(name)
		det, err := periods.Detect(s.Values, periods.DefaultConfidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{Query: name, Threshold: det.Threshold, Top: det.Top(3)})
	}
	return rows, nil
}

// PrintFig13 renders the fig. 13 rows.
func PrintFig13(w io.Writer, rows []Fig13Row) {
	fprintf(w, "Fig. 13 — Discovered periods (power-density threshold, 99.99%% conf.)\n")
	for _, r := range rows {
		fprintf(w, "  %-14s threshold=%.4f", r.Query, r.Threshold)
		if len(r.Top) == 0 {
			fprintf(w, "  (no significant periods)\n")
			continue
		}
		for i, p := range r.Top {
			fprintf(w, "  P%d=%.2f", i+1, p.Length)
		}
		fprintf(w, "\n")
	}
}

// BurstReport holds the detected bursts of one query, with calendar dates.
type BurstReport struct {
	Query  string
	Window int
	Cutoff float64
	Bursts []burst.Burst
	Start  time.Time
}

// RunBurstFigure reproduces figs. 14–16 for one named query.
func RunBurstFigure(seed int64, name string, window int) (*BurstReport, error) {
	g := querylog.New(seed)
	s := g.Exemplar(name)
	det, err := burst.DetectStandardized(s.Values, window, burst.DefaultCutoff)
	if err != nil {
		return nil, err
	}
	return &BurstReport{
		Query:  name,
		Window: window,
		Cutoff: det.Cutoff,
		Bursts: det.Bursts,
		Start:  s.Start,
	}, nil
}

// Print renders the burst report with calendar dates (fig. 14–16 style).
func (r *BurstReport) Print(w io.Writer) {
	fprintf(w, "  %-12s (MA window %d, cutoff %.2f): %d burst(s)\n",
		r.Query, r.Window, r.Cutoff, len(r.Bursts))
	for _, b := range r.Bursts {
		from := r.Start.AddDate(0, 0, b.Start).Format("2006-01-02")
		to := r.Start.AddDate(0, 0, b.End).Format("2006-01-02")
		fprintf(w, "      [%s .. %s]  avg=%.2f  (%d days)\n", from, to, b.Avg, b.Len())
	}
}

// Fig19Row is one query-by-burst example: the query and its top matches.
type Fig19Row struct {
	Query   string
	Matches []string
}

// RunFig19 reproduces fig. 19: query-by-burst examples over the exemplar
// set plus background dataset series.
func RunFig19(seed int64, background int) ([]Fig19Row, error) {
	g := querylog.New(seed)
	all := append(g.Exemplars(), g.Dataset(background)...)
	// Burst feature DB over everything, long-term windows.
	type entry struct {
		name   string
		bursts []burst.Burst
	}
	entries := make([]entry, 0, len(all))
	for _, s := range all {
		det, err := burst.DetectStandardized(s.Values, burst.LongWindow, burst.DefaultCutoff)
		if err != nil {
			return nil, err
		}
		// Keep only bursts whose moving average peaks ≥ 0.5 z-units — the
		// same intensity floor core.Engine applies before storing features
		// (micro-bursts of flat-MA periodic series otherwise drown BSim).
		kept := det.Bursts[:0:0]
		for _, b := range det.Bursts {
			peak := 0.0
			for i := b.Start; i <= b.End; i++ {
				if det.MA[i] > peak {
					peak = det.MA[i]
				}
			}
			if peak >= 0.5 {
				kept = append(kept, b)
			}
		}
		entries = append(entries, entry{name: s.Name, bursts: kept})
	}
	queries := []string{querylog.WorldTradeCenter, querylog.Hurricane, querylog.Christmas}
	rows := make([]Fig19Row, 0, len(queries))
	for _, qname := range queries {
		var qb []burst.Burst
		for _, e := range entries {
			if e.name == qname {
				qb = e.bursts
				break
			}
		}
		type scored struct {
			name  string
			score float64
		}
		var sc []scored
		for _, e := range entries {
			if e.name == qname {
				continue
			}
			if s := burst.BSim(qb, e.bursts); s > 0 {
				sc = append(sc, scored{e.name, s})
			}
		}
		sort.Slice(sc, func(a, b int) bool { return sc[a].score > sc[b].score })
		row := Fig19Row{Query: qname}
		for i := 0; i < 3 && i < len(sc); i++ {
			row.Matches = append(row.Matches, sc[i].name)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig19 renders the fig. 19 rows.
func PrintFig19(w io.Writer, rows []Fig19Row) {
	fprintf(w, "Fig. 19 — 'Query-by-burst' examples (top BSim matches)\n")
	for _, r := range rows {
		fprintf(w, "  query = %-20s ->", r.Query)
		for _, m := range r.Matches {
			fprintf(w, "  %q", m)
		}
		fprintf(w, "\n")
	}
}
