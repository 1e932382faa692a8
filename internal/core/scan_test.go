package core

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/dtw"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/series"
)

func scanEngine(t *testing.T, n int, cfg Config) (*Engine, []*series.Series) {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 17)
	data := g.Dataset(n)
	e, err := NewEngine(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, data
}

// A DTW or period search reads rows in place, draws its working memory from
// a pool and transforms every row through one spectrum, so what it
// allocates does not depend on how many series it scans.
func TestScanQueryAllocationsIndependentOfN(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ctx := context.Background()
	for name, req := range map[string]Request{
		"dtw":     {Kind: KindDTW, ID: 5, K: 10, Band: 7},
		"periods": {Kind: KindSimilarPeriods, ID: 5, K: 10, Periods: []float64{7, 30}},
	} {
		var allocs [2]float64
		for i, n := range []int{64, 512} {
			e, _ := scanEngine(t, n, Config{Budget: 8})
			query := func() {
				resp, err := e.Query(ctx, req)
				if err != nil || len(resp.Neighbors) != req.K {
					t.Fatalf("%s over %d series: %d neighbours, %v", name, n, len(resp.Neighbors), err)
				}
			}
			query() // size the pooled scratch
			allocs[i] = testing.AllocsPerRun(20, query)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s allocates %.0f objects over 64 series and %.0f over 512", name, allocs[0], allocs[1])
		}
	}
}

// Every DTW and period search costs one counted read per stored row it
// measures plus one for a query named by ID — by view over Memory, by copy
// over Disk (a loaded engine's store).
func TestScanQueriesCountOneReadPerRow(t *testing.T) {
	const n = 40
	for _, name := range []string{"memory", "disk"} {
		hub := obs.NewHub()
		e, data := scanEngine(t, n, Config{Budget: 8, Obs: hub})
		if name == "disk" {
			hub = obs.NewHub()
			e = reopen(t, e, Config{Obs: hub})
		}
		reads := hub.Registry().Counter("seqstore_reads_total", "")
		for _, c := range []struct {
			req  Request
			want int64
		}{
			{Request{Kind: KindDTW, ID: 3, K: 5, Band: 4}, n},
			{Request{Kind: KindDTW, Values: data[3].Values, ID: 3, K: 5, Band: 4}, n - 1},
			{Request{Kind: KindDTW, Values: data[3].Values, ID: -1, K: 5, Band: 4}, n},
			{Request{Kind: KindSimilarPeriods, ID: 3, K: 5, Periods: []float64{7}}, n},
			{Request{Kind: KindSimilarPeriods, Values: data[3].Values, ID: n + 9, K: 5, Periods: []float64{7}}, n},
		} {
			before, storeBefore := reads.Value(), e.Store().Reads()
			if _, err := e.Query(context.Background(), c.req); err != nil {
				t.Fatal(err)
			}
			if got := reads.Value() - before; got != c.want {
				t.Errorf("%s %v values=%v id=%d: seqstore_reads_total moved by %d, want %d",
					name, c.req.Kind, c.req.Values != nil, c.req.ID, got, c.want)
			}
			if got := e.Store().Reads() - storeBefore; got != c.want {
				t.Errorf("%s %v values=%v id=%d: store counted %d reads, want %d",
					name, c.req.Kind, c.req.Values != nil, c.req.ID, got, c.want)
			}
		}
	}
}

// The cascade's Stats reach the registry and the dtw_cascade span, and they
// are the Stats the cascade itself reports over the same collection.
func TestDTWStatsAreExported(t *testing.T) {
	hub := obs.NewHub()
	hub.Traces.SetSampler(obs.NewTailSampler(1, hub.Slow))
	e, _ := scanEngine(t, 90, Config{Budget: 8, Obs: hub})
	const id, band, k = 11, 7, 4

	var coll [][]float64
	for other := 0; other < e.Len(); other++ {
		if other != id {
			z, err := e.StandardizedValues(other)
			if err != nil {
				t.Fatal(err)
			}
			coll = append(coll, z)
		}
	}
	z, err := e.StandardizedValues(id)
	if err != nil {
		t.Fatal(err)
	}
	scratch := dtw.Get()
	wantRes, want, _, err := scratch.SearchKLimited(coll, z, band, k, nil)
	scratch.Release()
	if err != nil {
		t.Fatal(err)
	}
	if want.FullDTW == 0 || want.Abandoned == 0 || want.FullDTW == want.LBComputed {
		t.Fatalf("corpus does not exercise the cascade: %+v", want)
	}

	resp, err := e.Query(context.Background(), Request{Kind: KindDTW, ID: id, K: k, Band: band})
	if err != nil {
		t.Fatal(err)
	}
	for i, nb := range resp.Neighbors {
		wantID := wantRes[i].Index
		if wantID >= id {
			wantID++
		}
		if nb.ID != wantID || nb.Dist != wantRes[i].Dist {
			t.Errorf("rank %d: engine %d/%v, cascade over the same rows %d/%v", i, nb.ID, nb.Dist, wantID, wantRes[i].Dist)
		}
	}
	reg := hub.Registry()
	for name, w := range map[string]int{
		"dtw_lb_computed_total": want.LBComputed,
		"dtw_full_total":        want.FullDTW,
		"dtw_abandoned_total":   want.Abandoned,
	} {
		if got := counterValue(t, reg, name); got != int64(w) {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	traces := hub.Traces.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no trace retained")
	}
	sp, ok := findSpan(traces[len(traces)-1].Root, "dtw_cascade")
	if !ok {
		t.Fatal("trace has no dtw_cascade span")
	}
	attrs := map[string]string{}
	for _, a := range sp.Attrs {
		attrs[a.Key] = a.Value
	}
	for key, w := range map[string]int{"lb_computed": want.LBComputed, "full_dtw": want.FullDTW, "abandoned": want.Abandoned} {
		if attrs[key] != strconv.Itoa(w) {
			t.Errorf("dtw_cascade span %s = %q, want %d", key, attrs[key], w)
		}
	}
}
