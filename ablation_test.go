package repro

// Ablation benchmarks for the design choices DESIGN.md §5 calls out. Each
// reports the quantity the choice trades on as a custom metric, so
// `go test -bench Ablation` shows the effect of turning each one off.

import (
	"math"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// treeFixture builds a store + tree over the shared corpus prefix.
func treeFixture(b *testing.B, n int, opts vptree.Options) (*vptree.Tree, *seqstore.Memory) {
	b.Helper()
	c := sharedCorpus(b)
	if n > len(c.Data) {
		n = len(c.Data)
	}
	store, err := seqstore.NewMemory(c.Data[0].Len())
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		if ids[i], err = store.Append(c.Data[i].Values); err != nil {
			b.Fatal(err)
		}
	}
	tree, err := vptree.Build(c.Spectra[:n], ids, opts)
	if err != nil {
		b.Fatal(err)
	}
	return tree, store
}

// retrievalsPerQuery averages FullRetrievals of 1NN over the corpus queries.
func retrievalsPerQuery(b *testing.B, tree *vptree.Tree, store *seqstore.Memory) float64 {
	b.Helper()
	c := sharedCorpus(b)
	var agg vptree.Stats
	for _, q := range c.Queries {
		_, st, err := tree.Search(q.Values, 1, tree.Features(), store)
		if err != nil {
			b.Fatal(err)
		}
		agg.Add(st)
	}
	return float64(agg.FullRetrievals) / float64(len(c.Queries))
}

// BenchmarkAblationGuidedDescent compares full retrievals with and without
// the §4.1 guided-descent heuristic.
func BenchmarkAblationGuidedDescent(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		unguided bool
	}{{"guided", false}, {"unguided", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			tree, store := treeFixture(b, 1024, vptree.Options{
				Budget: 16, PaperBounds: true, NoGuidedDescent: cfg.unguided,
			})
			var per float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				per = retrievalsPerQuery(b, tree, store)
			}
			b.ReportMetric(per, "retrievals/query")
		})
	}
}

// BenchmarkAblationBoundsSafety compares retrievals under the paper's fig. 9
// lower bound against the provably sound SafeBounds.
func BenchmarkAblationBoundsSafety(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		paper bool
	}{{"paper-fig9", true}, {"safe", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			tree, store := treeFixture(b, 1024, vptree.Options{Budget: 16, PaperBounds: cfg.paper})
			var per float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				per = retrievalsPerQuery(b, tree, store)
			}
			b.ReportMetric(per, "retrievals/query")
		})
	}
}

// BenchmarkAblationInformation isolates the two information sources of
// BestMinError: BestMin has only the minProperty, BestError only the
// omitted energy, BestMinError both. Metric: candidates examined for 1NN by
// the standalone fig. 22 procedure at one cell.
func BenchmarkAblationInformation(b *testing.B) {
	c := sharedCorpus(b)
	for _, m := range []spectral.Method{spectral.BestMin, spectral.BestError, spectral.BestMinError} {
		b.Run(m.String(), func(b *testing.B) {
			comp := make([]*spectral.Compressed, 1024)
			for i := range comp {
				var err error
				if comp[i], err = spectral.Compress(c.Spectra[i], m, 16); err != nil {
					b.Fatal(err)
				}
			}
			var frac float64
			b.ResetTimer()
			for bi := 0; bi < b.N; bi++ {
				total := 0
				for qi := range c.Queries {
					examined, err := benchutil.PruneSearch1NN(c, comp, qi)
					if err != nil {
						b.Fatal(err)
					}
					total += examined
				}
				frac = float64(total) / float64(len(c.Queries)) / 1024
			}
			b.ReportMetric(frac, "fraction-examined")
		})
	}
}

// BenchmarkAblationEarlyAbandon measures the exact-distance refinement with
// and without early abandoning, on a linear scan.
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	c := sharedCorpus(b)
	n := 1024
	q := c.Queries[0].Values
	b.Run("with-abandon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best := math.Inf(1)
			for j := 0; j < n; j++ {
				d, abandoned, err := series.EuclideanEarlyAbandon(q, c.Data[j].Values, best)
				if err != nil {
					b.Fatal(err)
				}
				if !abandoned && d < best {
					best = d
				}
			}
		}
	})
	b.Run("without-abandon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best := math.Inf(1)
			for j := 0; j < n; j++ {
				d, err := series.Euclidean(q, c.Data[j].Values)
				if err != nil {
					b.Fatal(err)
				}
				if d < best {
					best = d
				}
			}
		}
	})
}
