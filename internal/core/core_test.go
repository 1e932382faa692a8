package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
)

func buildEngine(t testing.TB, n int, cfg Config, seed int64) (*Engine, *querylog.Generator) {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, 512, seed)
	data := append(g.Exemplars(), g.Dataset(n)...)
	e, err := NewEngine(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, g
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("expected error for empty dataset")
	}
	a := &series.Series{Name: "a", Values: make([]float64, 16)}
	b := &series.Series{Name: "b", Values: make([]float64, 8)}
	if _, err := NewEngine([]*series.Series{a, b}, Config{Budget: 2}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestLookupAndNames(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 1)
	id, ok := e.Lookup(querylog.Cinema)
	if !ok {
		t.Fatal("cinema not found")
	}
	if e.Name(id) != querylog.Cinema {
		t.Errorf("Name(%d) = %q", id, e.Name(id))
	}
	if e.Name(-1) != "" || e.Name(1<<20) != "" {
		t.Error("out-of-range Name should be empty")
	}
	if _, ok := e.Lookup("nonexistent-query"); ok {
		t.Error("Lookup of unknown name should fail")
	}
	if _, err := e.Series(-1); err == nil {
		t.Error("Series(-1) should fail")
	}
	s, err := e.Series(id)
	if err != nil || s.Name != querylog.Cinema {
		t.Errorf("Series: %v %v", s, err)
	}
}

func TestIndexMatchesLinearScan(t *testing.T) {
	e, g := buildEngine(t, 60, Config{Budget: 12}, 2)
	queries := g.Queries(4)
	totalRetrieved := 0
	for _, q := range queries {
		idx, st, err := similarQueries(e, q.Values, 3)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := linearScan(e, q.Values, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 3 || len(lin) != 3 {
			t.Fatalf("result sizes %d/%d", len(idx), len(lin))
		}
		for i := range idx {
			if math.Abs(idx[i].Dist-lin[i].Dist) > 1e-9 {
				t.Errorf("rank %d: index %v vs scan %v", i, idx[i], lin[i])
			}
		}
		totalRetrieved += st.FullRetrievals
	}
	// On aggregate the index must prune; individual noise queries against a
	// small diverse dataset may legitimately retrieve almost everything.
	if totalRetrieved >= len(queries)*e.Len() {
		t.Errorf("index retrieved everything across all queries (%d/%d)",
			totalRetrieved, len(queries)*e.Len())
	}
}

func TestSimilarToIDExcludesSelf(t *testing.T) {
	e, _ := buildEngine(t, 40, Config{}, 3)
	id, _ := e.Lookup(querylog.Cinema)
	res, _, err := similarToID(e, id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.ID == id {
			t.Error("self returned as its own neighbour")
		}
	}
}

// The headline semantic claim: weekly-pattern queries find other
// weekly-pattern queries.
func TestSemanticSimilarity(t *testing.T) {
	e, _ := buildEngine(t, 90, Config{}, 4)
	id, _ := e.Lookup(querylog.Cinema)
	res, _, err := similarToID(e, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := res[0].Name
	if top != querylog.Nordstrom && top[:4] != "week" && top[:4] != "quer" {
		// nordstrom or a weekly-archetype dataset series expected.
		t.Errorf("cinema's nearest neighbour = %q, expected a weekly-pattern query", top)
	}
}

// A disk-backed engine is a loaded one (Save, then LoadEngine: `s2 -db`), and
// its index answers what its linear scan does.
func TestDiskBackedEngine(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 5)
	built, err := NewEngine(g.Dataset(30), Config{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	e := reopen(t, built, Config{})
	if _, ok := e.Store().(*seqstore.Disk); !ok {
		t.Fatalf("a loaded engine's store is %T, want *seqstore.Disk", e.Store())
	}
	q := g.Queries(1)[0]
	idx, _, err := similarQueries(e, q.Values, 2)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := linearScan(e, q.Values, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if math.Abs(idx[i].Dist-lin[i].Dist) > 1e-9 {
			t.Errorf("disk engine rank %d: %v vs %v", i, idx[i], lin[i])
		}
	}
}

func TestQueryLengthMismatch(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 6)
	if _, _, err := similarQueries(e, make([]float64, 5), 1); err != spectral.ErrMismatch {
		t.Error("expected ErrMismatch")
	}
	if _, err := linearScan(e, make([]float64, 5), 1); err != spectral.ErrMismatch {
		t.Error("expected ErrMismatch from LinearScan")
	}
	if _, err := linearScan(e, make([]float64, e.SeqLen()), 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestPeriodsViaEngine(t *testing.T) {
	e, _ := buildEngine(t, 5, Config{}, 7)
	id, _ := e.Lookup(querylog.Cinema)
	det, err := e.PeriodsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasPeriodNear(7, 0.2) {
		t.Errorf("cinema weekly period not found: %v", det.Top(3))
	}
	if _, err := e.PeriodsOf(-5); err == nil {
		t.Error("expected error for bad id")
	}
}

func TestBurstsViaEngine(t *testing.T) {
	e, _ := buildEngine(t, 5, Config{}, 8)
	id, _ := e.Lookup(querylog.Easter)
	stored := e.BurstsOf(id, Long)
	if len(stored) == 0 {
		t.Fatal("no stored long-term bursts for easter")
	}
	s, _ := e.Series(id)
	det, err := e.Bursts(s.Values, Long)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Bursts) != len(stored) {
		t.Errorf("stored %d bursts, detector returns %d", len(stored), len(det.Bursts))
	}
	if e.BurstDB(Long).Sequences() != e.Len() && e.BurstDB(Long).Sequences() == 0 {
		t.Error("burst DB empty")
	}
}

func TestQueryByBurstViaEngine(t *testing.T) {
	e, g := buildEngine(t, 40, Config{}, 9)
	id, _ := e.Lookup(querylog.Halloween)
	matches, err := queryByBurstOf(e, id, 5, Long)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == id {
			t.Error("query-by-burst returned the query itself")
		}
	}
	// External query: a fresh halloween-like series should match halloween.
	g2 := querylog.NewGenerator(querylog.DefaultStart, 512, 99)
	q := g2.Exemplar(querylog.Halloween)
	matches, err = queryByBurst(e, q.Values, 3, Long)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.Name == querylog.Halloween {
			found = true
		}
	}
	if !found {
		t.Errorf("fresh halloween query did not match stored halloween: %v", matches)
	}
	_ = g
}

func TestBurstWindowString(t *testing.T) {
	if Short.String() == "" || Long.String() == "" || Short.String() == Long.String() {
		t.Error("BurstWindow String broken")
	}
}

func TestStandardizedValues(t *testing.T) {
	e, _ := buildEngine(t, 5, Config{}, 10)
	z, err := e.StandardizedValues(0)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	if math.Abs(mean) > 1e-9 {
		t.Errorf("stored values not standardized: mean %v", mean)
	}
}

func BenchmarkEngineSimilarQueries(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 512, 11)
	data := g.Dataset(500)
	e, err := NewEngine(data, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	qs := g.Queries(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := similarQueries(e, qs[i%len(qs)].Values, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryByBurst2048 is one query-by-burst over `families`' corpus
// shape — 2 048 series of 1 024 days, the short window, k = 10 — with the
// query series cycling through the nine archetypes and spread over their
// instances, as the benchmark's requests are.
func BenchmarkQueryByBurst2048(b *testing.B) {
	const n, archetypes = 2048, 9
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 1)
	e, err := NewEngine(g.Dataset(n), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := archetypes*(i*37%(n/archetypes)) + i%archetypes
		if _, err := e.Query(context.Background(), Request{Kind: KindBurstID, ID: id, K: 10, Window: Short}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReconstruct(t *testing.T) {
	e, _ := buildEngine(t, 5, Config{Budget: 16}, 22)
	id, _ := e.Lookup(querylog.Cinema)
	rec, err := e.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Values) != e.SeqLen() {
		t.Fatalf("reconstruction length %d", len(rec.Values))
	}
	if rec.Coefficients < 1 || rec.Coefficients > 2*16 {
		t.Errorf("coefficients = %d", rec.Coefficients)
	}
	// E must equal the Euclidean gap between stored values and Values.
	z, err := e.StandardizedValues(id)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range z {
		d := z[i] - rec.Values[i]
		sum += d * d
	}
	if math.Abs(math.Sqrt(sum)-rec.Error) > 1e-9 {
		t.Errorf("E %v vs recomputed %v", rec.Error, math.Sqrt(sum))
	}
	if _, err := e.Reconstruct(-1); err == nil {
		t.Error("expected error for bad id")
	}
}

func TestPeriodsOfSet(t *testing.T) {
	e, _ := buildEngine(t, 60, Config{}, 23)
	id, _ := e.Lookup(querylog.Cinema)
	// The kNN-results use case: summarize the periods of cinema's neighbours.
	res, _, err := similarToID(e, id, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{id}
	for _, r := range res {
		ids = append(ids, r.ID)
	}
	det, err := e.PeriodsOfSet(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasPeriodNear(7, 0.3) {
		t.Errorf("set periods missing the weekly rhythm: %v", det.Top(5))
	}
	if _, err := e.PeriodsOfSet([]int{-1}); err == nil {
		t.Error("expected error for bad id")
	}
}

func TestSimilarByPeriods(t *testing.T) {
	e, _ := buildEngine(t, 80, Config{}, 24)
	id, _ := e.Lookup(querylog.Cinema)
	res, err := similarByPeriods(e, id, []float64{7}, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results", len(res))
	}
	// Restricted to the weekly band, the neighbours must be weekly-pattern
	// series (nordstrom or weekly archetypes), never seasonal ramps.
	weekly := 0
	for _, r := range res {
		if r.ID == id {
			t.Error("self in results")
		}
		if r.Name == querylog.Nordstrom || strings.HasPrefix(r.Name, "weekly") ||
			strings.HasPrefix(r.Name, "bank") || strings.HasPrefix(r.Name, "president") ||
			strings.HasPrefix(r.Name, "athens") {
			weekly++
		}
	}
	if weekly < 3 {
		t.Errorf("period-focused search returned non-weekly neighbours: %v", res)
	}
	// Distances ascend.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Error("results unsorted")
		}
	}
	if _, err := similarByPeriods(e, id, []float64{7}, 0.05, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := similarByPeriods(e, id, []float64{0.001}, 0.0001, 3); err == nil {
		t.Error("expected error for unmatchable period")
	}
}

func TestDynamicEngineAdd(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 25)
	initial := g.Dataset(40)
	extra := g.Dataset(20)
	e, err := NewEngine(initial, Config{Budget: 10, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range extra {
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 60 {
		t.Fatalf("Len = %d", e.Len())
	}
	// Index answers must equal linear scan over all 60 series.
	for _, q := range g.Queries(3) {
		idx, _, err := similarQueries(e, q.Values, 2)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := linearScan(e, q.Values, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range idx {
			if math.Abs(idx[i].Dist-lin[i].Dist) > 1e-9 {
				t.Errorf("rank %d: index %v vs scan %v", i, idx[i], lin[i])
			}
		}
	}
	// Added series participate in query-by-burst too.
	id, ok := e.Lookup(extra[0].Name)
	if !ok {
		t.Fatal("added series not in name table")
	}
	if _, err := queryByBurstOf(e, id, 3, Long); err != nil {
		t.Fatal(err)
	}
	// Name/Series accessors cover added rows.
	s, err := e.Series(id)
	if err != nil || s.Name != extra[0].Name {
		t.Errorf("Series(%d): %v %v", id, s, err)
	}
}

func TestAddRequiresDynamic(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 26)
	e, err := NewEngine(g.Dataset(5), Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Add(g.Dataset(1)[0]); err == nil {
		t.Error("expected error on static engine")
	}
	// Dynamic engine rejects wrong lengths.
	d, err := NewEngine(g.Dataset(5), Config{Budget: 4, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Add(&series.Series{Name: "short", Values: make([]float64, 5)}); err == nil {
		t.Error("expected length error")
	}
}

func TestSimilarDTW(t *testing.T) {
	e, _ := buildEngine(t, 50, Config{}, 27)
	id, _ := e.Lookup(querylog.Cinema)
	res, err := similarDTW(e, id, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.ID == id {
			t.Error("self in DTW results")
		}
		if i > 0 && r.Dist < res[i-1].Dist {
			t.Error("DTW results unsorted")
		}
	}
	// Band 0 degenerates to Euclidean: must match SimilarToID exactly.
	eu, _, err := similarToID(e, id, 3)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := similarDTW(e, id, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eu {
		if math.Abs(eu[i].Dist-dt[i].Dist) > 1e-9 {
			t.Errorf("rank %d: euclid %v vs dtw(r=0) %v", i, eu[i].Dist, dt[i].Dist)
		}
	}
	// Warping never increases the distance.
	for i := range dt {
		warped, err := similarDTW(e, id, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if warped[i].Dist > dt[i].Dist+1e-9 {
			t.Errorf("rank %d: band-5 dist %v above band-0 %v", i, warped[i].Dist, dt[i].Dist)
		}
		break
	}
	if _, err := similarDTW(e, id, 3, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := similarDTW(e, -1, 3, 1); err == nil {
		t.Error("expected error for bad id")
	}
}
