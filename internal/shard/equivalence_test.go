package shard

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/querylog"
	"repro/internal/series"
)

// The sharding equivalence property (the contract in the package comment):
// for every Request kind, a ShardedEngine over any shard count answers
// exactly like a single core.Engine on the same corpus — same IDs, same
// names, same distances/scores bit for bit, duplicate distances included.
// Budgeted queries keep a weaker but still checkable contract: a one-shard
// engine stays bit-identical even when truncated (one child gate carries the
// whole budget), multi-shard engines match exactly whenever neither side
// truncated, and a truncated merged answer is still a canonical best-so-far
// prefix (ordered, deduplicated, k-bounded, with recomputable distances).

const (
	eqTrials  = 100
	eqDays    = 96 // spectral bins at 96/k days: periods 8, 12, 16 resolve
	eqDataset = 20
	eqDups    = 4 // copied series force exact distance ties in every merge
)

// eqLayout is one sharded engine every trial runs on.
type eqLayout struct{ shards, workers int }

// eqLayouts is one shard, and shard counts {2, 3, 8} × Workers {1, 2, 8}.
// Workers is the width of an index search's first, unseeded wave, so the
// table holds second waves that are empty (Workers ≥ shards), seeded by one
// shard or by several, and unseeded because no first-wave shard holds k
// rows (eight shards over eqDataset+eqDups series hold three rows each).
var eqLayouts = []eqLayout{
	{1, 2},
	{2, 1}, {2, 2}, {2, 8},
	{3, 1}, {3, 2}, {3, 8},
	{8, 1}, {8, 2}, {8, 8},
}

func (l eqLayout) String() string {
	return fmt.Sprintf("%d shards, %d workers", l.shards, l.workers)
}

// eqCorpus builds the shared dataset (with duplicated series for distance
// ties) and a pool of fresh query curves not present in the dataset.
func eqCorpus() ([]*series.Series, []*series.Series) {
	gen := querylog.NewGenerator(querylog.DefaultStart, eqDays, 7)
	data := gen.Dataset(eqDataset)
	for i := 0; i < eqDups; i++ {
		src := data[i]
		data = append(data, &series.Series{
			Name:   src.Name + "-dup",
			Start:  src.Start,
			Values: append([]float64(nil), src.Values...),
		})
	}
	return data, gen.Queries(6)
}

func eqConfig(shards int) core.Config {
	return core.Config{Budget: 8, Workers: 2, Shards: shards}
}

// eqRequest draws one randomized request. Kinds cycle so 100 trials cover
// every family at least 14 times; every 4th trial asks for k >= n and every
// 5th carries a deterministic work budget (node or exact-distance bounded —
// wall-clock budgets would make trials timing-dependent).
func eqRequest(rng *rand.Rand, trial, total int, queries []*series.Series) core.Request {
	req := core.Request{K: 1 + rng.Intn(6)}
	if trial%4 == 3 {
		req.K = total + 3
	}
	if trial%5 == 4 {
		if trial%2 == 0 {
			req.Budget.MaxNodeVisits = 1 + rng.Intn(3*total)
		} else {
			req.Budget.MaxExactDistances = 1 + rng.Intn(total)
		}
	}
	values := queries[rng.Intn(len(queries))].Values
	id := rng.Intn(total)
	window := core.Short
	if trial%2 == 1 {
		window = core.Long
	}
	switch trial % 7 {
	case 0:
		req.Kind, req.Values = core.KindSimilar, values
	case 1:
		req.Kind, req.ID = core.KindSimilarID, id
	case 2:
		req.Kind, req.Values = core.KindLinear, values
	case 3:
		req.Kind, req.Band = core.KindDTW, 7
		if trial%2 == 0 {
			req.ID = id
		} else {
			// Values-mode: search by curve, no exclusion (negative ID).
			req.Values, req.ID = values, -1
		}
	case 4:
		req.Kind, req.Periods = core.KindSimilarPeriods, []float64{8, 16}
		if trial%2 == 0 {
			req.ID = id
		} else {
			req.Values, req.ID = values, -1
		}
	case 5:
		req.Kind, req.Values, req.Window = core.KindBurst, values, window
	case 6:
		req.Kind, req.ID, req.Window = core.KindBurstID, id, window
	}
	return req
}

func TestShardedQueryEquivalence(t *testing.T) {
	data, queries := eqCorpus()
	total := len(data)

	single, err := core.NewEngine(data, eqConfig(0))
	if err != nil {
		t.Fatalf("single engine: %v", err)
	}
	defer single.Close()

	sharded := make(map[eqLayout]*ShardedEngine, len(eqLayouts))
	for _, l := range eqLayouts {
		cfg := eqConfig(l.shards)
		cfg.Workers = l.workers
		se, err := newSharded(core.SliceSource(data), cfg)
		if err != nil {
			t.Fatalf("sharded engine (%v): %v", l, err)
		}
		defer se.Close()
		sharded[l] = se
		if got := se.Len(); got != total {
			t.Fatalf("%v: Len() = %d, want %d", l, got, total)
		}
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < eqTrials; trial++ {
		req := eqRequest(rng, trial, total, queries)
		want, werr := single.Query(ctx, req)
		for _, l := range eqLayouts {
			n := l.shards
			label := fmt.Sprintf("trial %d (%s, k=%d, budget=%+v) on %v",
				trial, req.Kind, req.K, req.Budget, l)
			got, gerr := sharded[l].Query(ctx, req)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s: error mismatch: single=%v sharded=%v", label, werr, gerr)
			}
			if werr != nil {
				continue
			}
			unbudgeted := req.Budget == (core.Budget{})
			switch {
			case unbudgeted, n == 1:
				// Exact equivalence, truncation flag included: with no
				// budget both sides must complete; with one shard the
				// single child gate carries the whole budget, so even the
				// truncation point is bit-identical.
				if unbudgeted && (want.Truncated || got.Truncated) {
					t.Fatalf("%s: truncated without a budget (single=%v sharded=%v)",
						label, want.Truncated, got.Truncated)
				}
				requireSameResponse(t, label, want, got)
			case !want.Truncated && !got.Truncated:
				// Budgeted but neither side ran out: answers still exact.
				requireSameResponse(t, label, want, got)
			default:
				// A truncated side is a best-so-far prefix; check the
				// response invariants instead of exact equality.
				checkResponseInvariants(t, label, single, req, got)
			}
		}
	}

	// The index searches at every k from 1 to n+5, by value and by ID: as k
	// grows the seed comes from every first-wave shard, from some, then
	// from none.
	for k := 1; k <= total+5; k++ {
		for _, req := range []core.Request{
			{Kind: core.KindSimilar, Values: queries[k%len(queries)].Values, K: k},
			{Kind: core.KindSimilarID, ID: k % total, K: k},
		} {
			want, err := single.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range eqLayouts {
				label := fmt.Sprintf("%s k=%d on %v", req.Kind, k, l)
				got, err := sharded[l].Query(ctx, req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameResponse(t, label, want, got)
			}
		}
	}
}

// requireSameResponse asserts got is bit-identical to want in every
// result-visible field (index Stats are tree-shape dependent and excluded).
func requireSameResponse(t *testing.T, label string, want, got *core.Response) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("%s: kind = %v, want %v", label, got.Kind, want.Kind)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated = %v, want %v", label, got.Truncated, want.Truncated)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbours, want %d\n got: %+v\nwant: %+v",
			label, len(got.Neighbors), len(want.Neighbors), got.Neighbors, want.Neighbors)
	}
	for i := range want.Neighbors {
		w, g := want.Neighbors[i], got.Neighbors[i]
		if g.ID != w.ID || g.Name != w.Name || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s: neighbour %d = {%d %q %v}, want {%d %q %v}",
				label, i, g.ID, g.Name, g.Dist, w.ID, w.Name, w.Dist)
		}
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: %d matches, want %d\n got: %+v\nwant: %+v",
			label, len(got.Matches), len(want.Matches), got.Matches, want.Matches)
	}
	for i := range want.Matches {
		w, g := want.Matches[i], got.Matches[i]
		if g.ID != w.ID || g.Name != w.Name || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: match %d = {%d %q %v}, want {%d %q %v}",
				label, i, g.ID, g.Name, g.Score, w.ID, w.Name, w.Score)
		}
	}
}

// checkResponseInvariants validates a budget-truncated merged response: a
// canonical best-so-far prefix. Results are k-bounded, strictly ordered in
// the canonical merge order (so duplicates are impossible), resolve to real
// sequences with matching names, and — for the exact-Euclidean kinds —
// carry distances that recompute from the stored standardized values.
func checkResponseInvariants(t *testing.T, label string, single *core.Engine, req core.Request, got *core.Response) {
	t.Helper()
	if len(got.Neighbors) > req.K || len(got.Matches) > req.K {
		t.Fatalf("%s: %d+%d results exceed k=%d",
			label, len(got.Neighbors), len(got.Matches), req.K)
	}
	var queryZ []float64
	if req.Kind == core.KindSimilar || req.Kind == core.KindLinear {
		queryZ = (&series.Series{Values: req.Values}).Standardized().Values
	}
	for i, n := range got.Neighbors {
		if n.ID < 0 || n.ID >= single.Len() {
			t.Fatalf("%s: neighbour %d has out-of-range ID %d", label, i, n.ID)
		}
		if want := single.Name(n.ID); n.Name != want {
			t.Fatalf("%s: neighbour %d (ID %d) named %q, want %q", label, i, n.ID, n.Name, want)
		}
		if i > 0 {
			p := got.Neighbors[i-1]
			if p.Dist > n.Dist || (p.Dist == n.Dist && p.ID >= n.ID) {
				t.Fatalf("%s: neighbours not in canonical (dist, id) order at %d: %+v, %+v",
					label, i, p, n)
			}
		}
		if queryZ != nil {
			z, err := single.StandardizedValues(n.ID)
			if err != nil {
				t.Fatalf("%s: stored values of %d: %v", label, n.ID, err)
			}
			var sum float64
			for j := range z {
				d := z[j] - queryZ[j]
				sum += d * d
			}
			if want := math.Sqrt(sum); math.Abs(want-n.Dist) > 1e-6*(1+want) {
				t.Fatalf("%s: neighbour %d dist %v, recomputed %v", label, i, n.Dist, want)
			}
		}
	}
	for i, m := range got.Matches {
		if m.ID < 0 || m.ID >= single.Len() {
			t.Fatalf("%s: match %d has out-of-range ID %d", label, i, m.ID)
		}
		if want := single.Name(m.ID); m.Name != want {
			t.Fatalf("%s: match %d (ID %d) named %q, want %q", label, i, m.ID, m.Name, want)
		}
		if i > 0 {
			p := got.Matches[i-1]
			if p.Score < m.Score || (p.Score == m.Score && p.ID >= m.ID) {
				t.Fatalf("%s: matches not in canonical (score desc, id) order at %d: %+v, %+v",
					label, i, p, m)
			}
		}
	}
}

// TestScanMatchesTheLinearOracle: the similarity search (fig. 11 over the
// arena) answers as the exact linear scan does, the same IDs with the same
// distance bits, by values and by ID, on a single engine and on one and
// three shards: at corpus sizes around the scan's 256-row block, with
// duplicate rows, for k from 1 to past the corpus, after Add, and after a
// save and a load.
func TestScanMatchesTheLinearOracle(t *testing.T) {
	const k = 5
	for _, n := range []int{1, k - 1, 255, 256, 257, 600} {
		g, data := oracleCorpus(n)
		for name, s := range engines(t, data, core.Config{Budget: 8, Workers: 2}, 1, 3) {
			checkOracle(t, fmt.Sprintf("n=%d, %s", n, name), s, g.Queries(3), []int{1, k, n + 3})
		}
	}

	g := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	e, err := core.NewEngine(g.Dataset(300), core.Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range g.Queries(20) {
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	queries := querylog.NewGenerator(querylog.DefaultStart, 64, 8).Queries(3)
	checkOracle(t, "after Add", e, queries, []int{1, k, 400})
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadEngine(dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	checkOracle(t, "after Save and LoadEngine", loaded, queries, []int{1, k, 400})
}

// oracleCorpus is n series of 64 days whose rows 1 and n-1 repeat row 0,
// and the generator that made them.
func oracleCorpus(n int) (*querylog.Generator, []*series.Series) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, int64(n))
	data := g.Dataset(n)
	for _, i := range []int{1, n - 1} {
		if i > 0 && i < n {
			dup := *data[0]
			dup.Name = fmt.Sprintf("dup-of-0-at-%d", i)
			data[i] = &dup
		}
	}
	return g, data
}

// checkOracle compares, for every k, s's similarity search with its linear
// scan: by the values of each query, and by ID for a spread of stored series.
func checkOracle(t *testing.T, label string, s core.Searcher, queries []*series.Series, ks []int) {
	t.Helper()
	ask := func(req core.Request) []core.Neighbor {
		t.Helper()
		resp, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %+v: %v", label, req, err)
		}
		return resp.Neighbors
	}
	same := func(what string, got, want []core.Neighbor) {
		t.Helper()
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].ID == want[i].ID && math.Float64bits(got[i].Dist) == math.Float64bits(want[i].Dist)
		}
		if !ok {
			t.Fatalf("%s, %s:\n similar %v\n linear  %v", label, what, got, want)
		}
	}
	for _, k := range ks {
		for qi, q := range queries {
			same(fmt.Sprintf("query %d k=%d", qi, k),
				ask(core.Request{Kind: core.KindSimilar, Values: q.Values, K: k}),
				ask(core.Request{Kind: core.KindLinear, Values: q.Values, K: k}))
		}
		for id := 0; id < s.Len(); id += 1 + s.Len()/7 {
			same(fmt.Sprintf("id %d k=%d", id, k),
				ask(core.Request{Kind: core.KindSimilarID, ID: id, K: k}),
				ask(core.Request{Kind: core.KindLinear, ID: id, K: k}))
		}
	}
}

// TestDTWMatchesTheBruteForceOracle: the DTW search (LB_Keogh bounds, then
// fig. 11's filter and refine under banded DTW) answers as banded DTW
// against every other stored row does, the same IDs with the same distance
// bits: by ID, by values leaving an ID out and by values leaving none out,
// on a single engine and on one and three shards, at the sizes the linear
// oracle runs, with duplicate rows, for k from 1 to past the corpus, for a
// Euclidean band, a narrow one and one wider than the series, after Add,
// and over a loaded engine's Disk store.
func TestDTWMatchesTheBruteForceOracle(t *testing.T) {
	const k = 5
	for _, n := range []int{1, 4, 255, 256, 257, 600} {
		g, data := oracleCorpus(n)
		for name, s := range engines(t, data, core.Config{Budget: 8, Workers: 2}, 1, 3) {
			checkDTWOracle(t, fmt.Sprintf("n=%d, %s", n, name), s, g.Queries(2), []int{1, k, n + 3})
		}
	}

	g := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	e, err := core.NewEngine(g.Dataset(250), core.Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range g.Queries(10) {
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	queries := querylog.NewGenerator(querylog.DefaultStart, 64, 8).Queries(2)
	checkDTWOracle(t, "after Add", e, queries, []int{1, k, 300})
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadEngine(dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	checkDTWOracle(t, "after Save and LoadEngine", loaded, queries, []int{1, k, 300})
}

// checkDTWOracle compares, for every k and band, s's DTW search with banded
// DTW computed against every stored row but the excluded one, ranked by
// (distance, ID): by ID for a spread of stored series, and by each query's
// standardized values, leaving out ID 1 and leaving out nothing.
func checkDTWOracle(t *testing.T, label string, s core.Searcher, queries []*series.Series, ks []int) {
	t.Helper()
	n := s.Len()
	rows := make([][]float64, n)
	for id := range rows {
		z, err := s.StandardizedValues(id)
		if err != nil {
			t.Fatal(err)
		}
		rows[id] = z
	}
	type probe struct {
		z    []float64
		skip int
		req  core.Request
	}
	var probes []probe
	for id := 0; id < n; id += 1 + n/7 {
		probes = append(probes, probe{rows[id], id, core.Request{ID: id}})
	}
	for _, q := range queries {
		z := q.Standardized().Values
		for _, skip := range []int{1, -1} {
			probes = append(probes, probe{z, skip, core.Request{Values: z, Standardized: true, ID: skip}})
		}
	}
	for _, band := range []int{0, 7, n + 64} {
		for _, p := range probes {
			want := bruteDTW(t, rows, p.z, p.skip, band)
			for _, k := range ks {
				req := p.req
				req.Kind, req.K, req.Band = core.KindDTW, k, band
				resp, err := s.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: %+v: %v", label, req, err)
				}
				got, w := resp.Neighbors, want[:min(k, len(want))]
				ok := len(got) == len(w)
				for i := 0; ok && i < len(got); i++ {
					ok = got[i].ID == w[i].ID && math.Float64bits(got[i].Dist) == math.Float64bits(w[i].Dist)
				}
				if !ok {
					t.Fatalf("%s, band %d, id %d, by values %v, k=%d:\n dtw   %v\n brute %v",
						label, band, req.ID, req.Values != nil, k, got, w)
				}
			}
		}
	}
}

// bruteDTW is banded DTW from every row but skip to z, each row as the DP's
// row sequence, ranked by (distance, ID).
func bruteDTW(t *testing.T, rows [][]float64, z []float64, skip, band int) []core.Neighbor {
	t.Helper()
	dt := dtw.Get()
	defer dt.Release()
	if err := dt.Query(z, band); err != nil {
		t.Fatal(err)
	}
	var all []core.Neighbor
	for id, x := range rows {
		if id == skip {
			continue
		}
		d, _, err := dt.Distance(x, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, core.Neighbor{ID: id, Dist: d})
	}
	slices.SortFunc(all, func(a, b core.Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return a.ID - b.ID
	})
	return all
}
