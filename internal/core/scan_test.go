package core

import (
	"cmp"
	"context"
	"math"
	"slices"
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

// refCascade is the DTW cascade written out plainly and ungated: every row
// but skip bounded by LB_Keogh against z, ranked by (bound, ID), refined in
// that order under the k-th best distance with a strict cutoff, the k best
// kept in (distance, ID) order. It returns the neighbours and the work the
// engine's dtw_* counters count.
func refCascade(t *testing.T, rows [][]float64, z []float64, skip, band, k int) ([]Neighbor, dtwStats) {
	t.Helper()
	dt := dtw.Get()
	defer dt.Release()
	if err := dt.Query(z, band); err != nil {
		t.Fatal(err)
	}
	var st dtwStats
	type cand struct {
		id int
		lb float64
	}
	var cands []cand
	for id, x := range rows {
		if id == skip {
			continue
		}
		lb, err := dt.LowerBound(x)
		if err != nil {
			t.Fatal(err)
		}
		st.LB++
		cands = append(cands, cand{id, lb})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.lb, b.lb); c != 0 {
			return c
		}
		return a.id - b.id
	})
	var best []Neighbor
	worst := math.Inf(1)
	for _, c := range cands {
		if len(best) == k && c.lb > worst {
			break
		}
		st.Full++
		d, abandoned, err := dt.Distance(rows[c.id], worst)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned {
			st.Abandoned++
			continue
		}
		best = append(best, Neighbor{ID: c.id, Dist: d})
		slices.SortStableFunc(best, func(a, b Neighbor) int {
			if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
				return c
			}
			return a.ID - b.ID
		})
		best = best[:min(len(best), k)]
		if len(best) == k {
			worst = best[k-1].Dist
		}
	}
	return best, st
}

// engineRows returns every stored row of e.
func engineRows(t *testing.T, e *Engine) [][]float64 {
	t.Helper()
	rows := make([][]float64, e.Len())
	for id := range rows {
		z, err := e.StandardizedValues(id)
		if err != nil {
			t.Fatal(err)
		}
		rows[id] = z
	}
	return rows
}

// sameIDsAndBits reports whether got and want name the same IDs at the same
// distance bits.
func sameIDsAndBits(got, want []Neighbor) bool {
	return slices.EqualFunc(got, want, func(a, b Neighbor) bool {
		return a.ID == b.ID && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
	})
}

// The cascade's work reaches the registry and the dtw_cascade span, and it
// is the work the reference cascade counts over the same rows.
func TestDTWStatsAreExported(t *testing.T) {
	hub := obs.NewHub()
	hub.Traces.SetSampler(obs.NewTailSampler(1, hub.Slow))
	e, _ := scanEngine(t, 90, Config{Budget: 8, Obs: hub})
	const id, band, k = 11, 7, 4

	rows := engineRows(t, e)
	wantRes, want := refCascade(t, rows, rows[id], id, band, k)
	if want.Full == 0 || want.Abandoned == 0 || want.Full == want.LB {
		t.Fatalf("corpus does not exercise the cascade: %+v", want)
	}

	resp, err := e.Query(context.Background(), Request{Kind: KindDTW, ID: id, K: k, Band: band})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDsAndBits(resp.Neighbors, wantRes) {
		t.Errorf("engine %v, reference cascade over the same rows %v", resp.Neighbors, wantRes)
	}
	reg := hub.Registry()
	for name, w := range map[string]int{
		"dtw_lb_computed_total": want.LB,
		"dtw_full_total":        want.Full,
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
	for key, w := range map[string]int{"lb_computed": want.LB, "full_dtw": want.Full, "abandoned": want.Abandoned} {
		if attrs[key] != strconv.Itoa(w) {
			t.Errorf("dtw_cascade span %s = %q, want %d", key, attrs[key], w)
		}
	}
}

// The cascade's work counters and answers on a pinned corpus, by standardized
// values that leave no row out. The work and neighbour IDs are the ones the
// full-row kernel and the switch LB_Keogh produced at the commit before the
// banded kernel; answers and work are also compared with the reference
// cascade, distances bit for bit.
func TestDTWStatsPinned(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 41)
	hub := obs.NewHub()
	e, err := NewEngine(g.Dataset(120), Config{Budget: 8, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var queries [][]float64
	for _, s := range querylog.StandardizeAll(g.Queries(4)) {
		queries = append(queries, s.Values)
	}
	rows := engineRows(t, e)
	reg := hub.Registry()
	work := func() dtwStats {
		return dtwStats{
			int(counterValue(t, reg, "dtw_lb_computed_total")),
			int(counterValue(t, reg, "dtw_full_total")),
			int(counterValue(t, reg, "dtw_abandoned_total")),
		}
	}
	pinned := []struct {
		query, k int
		st       dtwStats
		idx      []int
	}{
		{0, 1, dtwStats{120, 118, 113}, []int{54}},
		{0, 5, dtwStats{120, 119, 106}, []int{54, 36, 72, 76, 108}},
		{1, 1, dtwStats{120, 3, 1}, []int{38}},
		{1, 5, dtwStats{120, 6, 0}, []int{38, 84, 2, 61, 106}},
		{2, 1, dtwStats{120, 116, 113}, []int{36}},
		{2, 5, dtwStats{120, 117, 104}, []int{36, 9, 90, 99, 15}},
		{3, 1, dtwStats{120, 6, 5}, []int{41}},
		{3, 5, dtwStats{120, 119, 114}, []int{41, 68, 11, 113, 33}},
	}
	for _, p := range pinned {
		before := work()
		resp, err := e.Query(context.Background(), Request{
			Kind: KindDTW, Values: queries[p.query], Standardized: true, ID: -1, K: p.k, Band: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		after := work()
		st := dtwStats{after.LB - before.LB, after.Full - before.Full, after.Abandoned - before.Abandoned}
		if st != p.st {
			t.Errorf("query %d k=%d: work %+v, pinned %+v", p.query, p.k, st, p.st)
		}
		want, wantSt := refCascade(t, rows, queries[p.query], -1, 7, p.k)
		if st != wantSt {
			t.Errorf("query %d k=%d: work %+v, reference cascade %+v", p.query, p.k, st, wantSt)
		}
		got := resp.Neighbors
		ids := make([]int, len(got))
		for i, nb := range got {
			ids[i] = nb.ID
		}
		if !slices.Equal(ids, p.idx) || !sameIDsAndBits(got, want) {
			t.Errorf("query %d k=%d: %v, pinned IDs %v, reference %v", p.query, p.k, got, p.idx, want)
		}
	}
}
