package core_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/shard"
)

// periodSearchers builds the corpus into every configuration a period search
// runs under: one engine or three shards with rows in memory, and one engine
// loaded from a save with rows on disk.
func periodSearchers(t *testing.T, data []*series.Series) map[string]core.Searcher {
	t.Helper()
	out := map[string]core.Searcher{}
	for _, shards := range []int{1, 3} {
		s, err := shard.NewFromConfig(data, core.Config{Budget: 8, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		out[fmt.Sprintf("%d shard(s), memory", shards)] = s
	}
	dir := t.TempDir()
	if err := out["1 shard(s), memory"].(*core.Engine).Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadEngine(dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	out["1 shard(s), disk"] = loaded
	return out
}

// directBins computes, per stored row, the DFT bins the period mask keeps by
// the definition of the normalized transform, one sum per bin — no FFT.
type directBins struct {
	n          int
	bins       []int
	cos, sin   []float64
	normalizer float64
}

func newDirectBins(n int, periods []float64, relTol float64) *directBins {
	d := &directBins{n: n, cos: make([]float64, n), sin: make([]float64, n), normalizer: 1 / math.Sqrt(float64(n))}
	for j := range d.cos {
		d.sin[j], d.cos[j] = math.Sincos(2 * math.Pi * float64(j) / float64(n))
	}
	for k := 1; k <= n/2; k++ {
		for _, p := range periods {
			if math.Abs(float64(n)/float64(k)-p) <= relTol*p {
				d.bins = append(d.bins, k)
				break
			}
		}
	}
	return d
}

// coeffs returns X(k) = 1/√N · Σ x(t)·e^(−2πikt/N) for every masked bin k.
func (d *directBins) coeffs(x []float64) []complex128 {
	out := make([]complex128, len(d.bins))
	for i, k := range d.bins {
		var re, im float64
		for t, v := range x {
			j := k * t % d.n
			re += v * d.cos[j]
			im -= v * d.sin[j]
		}
		out[i] = complex(re*d.normalizer, im*d.normalizer)
	}
	return out
}

// distance is the Parseval-weighted masked distance: a bin with a conjugate
// mirror counts twice, the Nyquist bin of an even length once.
func (d *directBins) distance(q, x []complex128) float64 {
	sum := 0.0
	for i, k := range d.bins {
		w := 2.0
		if 2*k == d.n {
			w = 1
		}
		re, im := real(q[i])-real(x[i]), imag(q[i])-imag(x[i])
		sum += w * (re*re + im*im)
	}
	return math.Sqrt(sum)
}

// A period search answers to an oracle that transforms nothing with an FFT:
// each stored row's masked distance from a direct per-bin DFT. Ranking and
// distances (within 1e-9 relative) must match it in ID mode and Values mode,
// with K below and beyond the corpus, at even and odd lengths, over a memory
// and a disk store, on one engine and on three shards.
func TestSimilarPeriodsMatchesDirectDFT(t *testing.T) {
	const tol = 1e-9
	for _, days := range []int{512, 365} {
		g := querylog.NewGenerator(querylog.DefaultStart, days, 41)
		data := append(g.Exemplars(), g.Dataset(50)...)
		n := len(data)
		raw := g.Dataset(1)[0].Values
		for name, s := range periodSearchers(t, data) {
			rows := make([][]float64, n)
			for id := range rows {
				z, err := s.StandardizedValues(id)
				if err != nil {
					t.Fatal(err)
				}
				rows[id] = z
			}
			for _, c := range []struct {
				what string
				req  core.Request
			}{
				{"id weekly", core.Request{ID: 4, K: 5, Periods: []float64{7}, RelTol: 0.05}},
				{"id two periods", core.Request{ID: 17, K: 8, Periods: []float64{7, 30.5}, RelTol: 0.1}},
				{"id K ≥ n", core.Request{ID: n - 1, K: n + 5, Periods: []float64{3.5, 91}}},
				{"values", core.Request{Values: raw, ID: -1, K: 6, Periods: []float64{7}}},
				{"values excluding one", core.Request{Values: rows[9], ID: 9, K: 4, Periods: []float64{365.0 / 12}, RelTol: 0.2}},
				{"values K ≥ n", core.Request{Values: raw, ID: 2, K: 2 * n, Periods: []float64{14}, RelTol: 0.3}},
			} {
				req := c.req
				req.Kind = core.KindSimilarPeriods
				relTol := req.RelTol
				if relTol == 0 {
					relTol = 0.05
				}
				d := newDirectBins(days, req.Periods, relTol)
				query := rows[max(req.ID, 0)]
				if req.Values != nil {
					query = (&series.Series{Values: req.Values}).Standardized().Values
				}
				qc := d.coeffs(query)
				oracle := make([]core.Neighbor, 0, n)
				for id, z := range rows {
					if id != req.ID {
						oracle = append(oracle, core.Neighbor{ID: id, Dist: d.distance(qc, d.coeffs(z))})
					}
				}
				slices.SortFunc(oracle, func(a, b core.Neighbor) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
				})
				want := oracle[:min(req.K, len(oracle))]
				byID := map[int]float64{}
				for _, o := range oracle {
					byID[o.ID] = o.Dist
				}

				resp, err := s.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s, %d days, %s: %v", name, days, c.what, err)
				}
				got := resp.Neighbors
				if len(got) != len(want) {
					t.Fatalf("%s, %d days, %s: %d neighbours, oracle %d", name, days, c.what, len(got), len(want))
				}
				close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(a, b) }
				for i, nb := range got {
					od, ok := byID[nb.ID]
					// A neighbour other than the oracle's at this rank is only
					// allowed where the two sit within rounding of each other.
					if !ok || !close(nb.Dist, od) || !close(nb.Dist, want[i].Dist) ||
						(nb.ID != want[i].ID && !close(od, want[i].Dist)) {
						t.Fatalf("%s, %d days, %s, rank %d: %d at %v (oracle gives it %v), oracle's rank holds %d at %v",
							name, days, c.what, i, nb.ID, nb.Dist, od, want[i].ID, want[i].Dist)
					}
				}
			}
		}
	}
}

// The wire refuses a period that is not a positive finite number of days and
// a tolerance that is negative or not finite; so does the engine, for callers
// that build a core.Request themselves. An infinite period or tolerance would
// select every bin, and the request would answer a full-spectrum kNN.
func TestPeriodSearchRefusesBadPeriods(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 42)
	data := g.Dataset(24)
	inf, nan := math.Inf(1), math.NaN()
	for name, s := range periodSearchers(t, data) {
		for _, bad := range []struct {
			periods []float64
			relTol  float64
		}{
			{[]float64{inf}, 0.05},
			{[]float64{-inf}, 0.05},
			{[]float64{nan}, 0.05},
			{[]float64{0}, 0.05},
			{[]float64{-7}, 0.05},
			{[]float64{7, inf}, 0.05},
			{[]float64{7}, -0.1},
			{[]float64{7}, inf},
			{[]float64{7}, nan},
			{[]float64{0.001}, 0.0001}, // no bin near it
		} {
			for _, req := range []core.Request{
				{Kind: core.KindSimilarPeriods, ID: 3, K: 4, Periods: bad.periods, RelTol: bad.relTol},
				{Kind: core.KindSimilarPeriods, Values: data[3].Values, ID: -1, K: 4, Periods: bad.periods, RelTol: bad.relTol},
			} {
				resp, err := s.Query(context.Background(), req)
				if !errors.Is(err, core.ErrBadPeriods) {
					t.Errorf("%s: periods %v, tolerance %v, values mode %v: response %v, error %v; want ErrBadPeriods",
						name, bad.periods, bad.relTol, req.Values != nil, resp, err)
				}
			}
		}
		// A zero tolerance is the default, not an error.
		if _, err := s.Query(context.Background(), core.Request{Kind: core.KindSimilarPeriods, ID: 3, K: 4, Periods: []float64{7}}); err != nil {
			t.Errorf("%s: default tolerance: %v", name, err)
		}
	}
}

// BenchmarkSimilarPeriods2048 is one period search over `families`' corpus
// shape: 2 048 series of 1 024 days, each row transformed once.
func BenchmarkSimilarPeriods2048(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 43)
	e, err := core.NewEngine(g.Dataset(2048), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	req := core.Request{Kind: core.KindSimilarPeriods, ID: 5, K: 10, Periods: []float64{7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
