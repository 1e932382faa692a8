// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at benchmark-friendly scales and report the
// headline quantity of each as a custom benchmark metric, so that
//
//	go test -bench=. -benchmem
//
// prints one row per experiment. cmd/experiments produces the full
// paper-style tables (use -paper for the paper's dataset sizes); these
// benchmarks exist to regression-track the shapes.
package repro

import (
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/spectral"
)

// corpusOnce shares one corpus across benchmarks: 2048 series x 1024 days
// plus 20 held-out queries.
var (
	corpusOnce sync.Once
	corpus     *benchutil.Corpus
	corpusErr  error
)

func sharedCorpus(b *testing.B) *benchutil.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = benchutil.NewCorpus(2048, 20, 1024, 1)
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpus
}

// BenchmarkFig5Reconstruction regenerates fig. 5 and reports the mean
// relative improvement of best-4 over first-5 reconstruction error.
func BenchmarkFig5Reconstruction(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		rows, err := benchutil.RunFig5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += (r.ErrFirst5 - r.ErrBest4) / r.ErrFirst5
		}
		improvement = 100 * sum / float64(len(rows))
	}
	b.ReportMetric(improvement, "%improvement")
}

// BenchmarkFig12ExponentialFit regenerates fig. 12 and reports the mean
// relative exponential-fit error of non-periodic PSD histograms.
func BenchmarkFig12ExponentialFit(b *testing.B) {
	var relErr float64
	for i := 0; i < b.N; i++ {
		rows, err := benchutil.RunFig12(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.RelFitError
		}
		relErr = sum / float64(len(rows))
	}
	b.ReportMetric(relErr, "rel-fit-err")
}

// BenchmarkFig13Periods regenerates fig. 13 and reports how many of the
// four panels produce the expected detection outcome.
func BenchmarkFig13Periods(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		rows, err := benchutil.RunFig13(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		for _, r := range rows {
			switch r.Query {
			case querylog.Cinema, querylog.Nordstrom:
				if len(r.Top) > 0 && r.Top[0].Length > 6.8 && r.Top[0].Length < 7.2 {
					correct++
				}
			case querylog.FullMoon:
				if len(r.Top) > 0 && r.Top[0].Length > 28 && r.Top[0].Length < 31 {
					correct++
				}
			case querylog.DudleyMoore:
				if len(r.Top) <= 2 {
					correct++
				}
			}
		}
	}
	b.ReportMetric(correct, "panels-correct/4")
}

// BenchmarkFig14Bursts regenerates the figs. 14-16 burst panels and reports
// the number of bursts found for the halloween panel.
func BenchmarkFig14Bursts(b *testing.B) {
	var bursts float64
	for i := 0; i < b.N; i++ {
		rep, err := benchutil.RunBurstFigure(int64(i+1), querylog.Halloween, burst.LongWindow)
		if err != nil {
			b.Fatal(err)
		}
		bursts = float64(len(rep.Bursts))
	}
	b.ReportMetric(bursts, "bursts")
}

// BenchmarkFig19QueryByBurst regenerates fig. 19 and reports the number of
// example queries that retrieved at least one co-bursting match.
func BenchmarkFig19QueryByBurst(b *testing.B) {
	var matched float64
	for i := 0; i < b.N; i++ {
		rows, err := benchutil.RunFig19(int64(i+1), 60)
		if err != nil {
			b.Fatal(err)
		}
		matched = 0
		for _, r := range rows {
			if len(r.Matches) > 0 {
				matched++
			}
		}
	}
	b.ReportMetric(matched, "queries-matched/3")
}

// BenchmarkFig20LowerBounds regenerates fig. 20 at budget 16 and reports
// the LB improvement of BestMinError over Wang in percent.
func BenchmarkFig20LowerBounds(b *testing.B) {
	c := sharedCorpus(b)
	var imp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := benchutil.RunBounds(c, []int{16}, 100)
		if err != nil {
			b.Fatal(err)
		}
		imp = exp.LBImprovement(16)
	}
	b.ReportMetric(imp, "%LB-improvement")
}

// BenchmarkFig21UpperBounds regenerates fig. 21 at budget 8 and reports the
// UB improvement of BestMinError over Wang in percent.
func BenchmarkFig21UpperBounds(b *testing.B) {
	c := sharedCorpus(b)
	var imp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := benchutil.RunBounds(c, []int{8}, 100)
		if err != nil {
			b.Fatal(err)
		}
		imp = exp.UBImprovement(8)
	}
	b.ReportMetric(imp, "%UB-improvement")
}

// BenchmarkFig22Pruning regenerates fig. 22 at one cell (N=2048, budget 16)
// and reports the fraction of the database examined by BestMinError.
func BenchmarkFig22Pruning(b *testing.B) {
	c := sharedCorpus(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := benchutil.RunPruning(c, []int{2048}, []int{16},
			[]spectral.Method{spectral.BestMinError})
		if err != nil {
			b.Fatal(err)
		}
		cell, _ := exp.Cell(2048, 16, spectral.BestMinError)
		frac = cell.Fraction
	}
	b.ReportMetric(frac, "fraction-examined")
}

// BenchmarkFig23Index regenerates one fig. 23 cell (N=2048, budget 16) and
// reports the modeled memory-index speedup over the linear scan.
func BenchmarkFig23Index(b *testing.B) {
	c := sharedCorpus(b)
	tmp, err := os.MkdirTemp("", "fig23-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := benchutil.RunIndex(c, []int{2048}, []int{16}, tmp)
		if err != nil {
			b.Fatal(err)
		}
		cell, _ := exp.Cell(2048, 16)
		if !cell.Correct {
			b.Fatal("index answers diverged from linear scan")
		}
		_, speedup = cell.ModeledSpeedups(benchutil.Disk2004)
	}
	b.ReportMetric(speedup, "modeled-speedup")
}

// BenchmarkSearch measures the end-to-end k-NN query path through the
// engine, with and without the observability layer wired, so the overhead of
// instrumentation is a tracked number. "off" is the baseline (Config.Obs nil:
// every instrument is a nil pointer and each hook is one nil check); "on"
// carries the full registry + tracer.
func BenchmarkSearch(b *testing.B) {
	for _, cfg := range []struct {
		name string
		hub  *obs.Hub
	}{{"obs-off", nil}, {"obs-on", obs.NewHub()}} {
		b.Run(cfg.name, func(b *testing.B) {
			g := querylog.NewGenerator(querylog.DefaultStart, 512, 1)
			data := append(g.Exemplars(), g.Dataset(512)...)
			e, err := core.NewEngine(data, core.Config{Budget: 16, Obs: cfg.hub})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			queries := g.Queries(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := e.Query(context.Background(), core.Request{Kind: core.KindSimilar, Values: q.Values, K: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Budgets exercises the Table 1 accounting across budgets
// (compression of one spectrum per method per budget).
func BenchmarkTable1Budgets(b *testing.B) {
	c := sharedCorpus(b)
	h := c.Spectra[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, budget := range []int{8, 16, 32} {
			for _, m := range spectral.Methods() {
				cc, err := spectral.Compress(h, m, budget)
				if err != nil {
					b.Fatal(err)
				}
				if cc.MemoryDoubles() > float64(2*budget+1) {
					b.Fatal("budget exceeded")
				}
			}
		}
	}
}
