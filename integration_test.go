package repro

// Cross-module integration tests: the full pipelines a user of the library
// would actually run, checked end-to-end for internal consistency.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/burst"
	"repro/internal/burstdb"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/minisql"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// TestThreeSearchEnginesAgree cross-checks every nearest-neighbour path in
// the repository: engine index (VP-tree + SafeBounds), engine linear scan,
// and DTW with band radius 0 (≡ Euclidean).
func TestThreeSearchEnginesAgree(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 77)
	data := querylog.StandardizeAll(g.Dataset(120))
	queries := querylog.StandardizeAll(g.Queries(4))

	engine, err := core.NewEngine(data, core.Config{Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	for qi, q := range queries {
		ctx := context.Background()
		resp, err := engine.Query(ctx, core.Request{Kind: core.KindSimilar, Values: q.Values, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		idx := resp.Neighbors
		if resp, err = engine.Query(ctx, core.Request{Kind: core.KindLinear, Values: q.Values, K: 1}); err != nil {
			t.Fatal(err)
		}
		lin := resp.Neighbors
		// Values-mode DTW: ID -1 excludes no series.
		if resp, err = engine.Query(ctx, core.Request{Kind: core.KindDTW, Values: q.Values, ID: -1, Band: 0, K: 1}); err != nil {
			t.Fatal(err)
		}
		dt := resp.Neighbors[0]
		d := idx[0].Dist
		for name, other := range map[string]float64{
			"linear scan": lin[0].Dist,
			"dtw(r=0)":    dt.Dist,
		} {
			if math.Abs(other-d) > 1e-9 {
				t.Errorf("query %d: %s 1NN dist %v != index %v", qi, name, other, d)
			}
		}
	}
}

// TestPersistencePipeline saves every persistent artifact (sequence store,
// compressed features, burst DB) and reopens them into a working query path:
// fig. 11 over the reopened features, refined against the reopened store.
func TestPersistencePipeline(t *testing.T) {
	dir := t.TempDir()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 78)
	data := querylog.StandardizeAll(g.Dataset(60))
	q := querylog.StandardizeAll(g.Queries(1))[0]

	// Build phase: everything written to disk.
	seqPath := filepath.Join(dir, "seqs.bin")
	featPath := filepath.Join(dir, "features.bin")
	burstPath := filepath.Join(dir, "bursts.bin")
	{
		store, err := seqstore.Create(seqPath, 128)
		if err != nil {
			t.Fatal(err)
		}
		feats := make([]*spectral.Compressed, len(data))
		bdb := burstdbFromSeries(t, data)
		for i, s := range data {
			if _, err = store.Append(s.Values); err != nil {
				t.Fatal(err)
			}
			spec, err := spectral.FromValues(s.Values)
			if err != nil {
				t.Fatal(err)
			}
			if feats[i], err = vptree.Compress(spec, vptree.Options{Budget: 10}); err != nil {
				t.Fatal(err)
			}
		}
		df, err := vptree.WriteFeatures(featPath, feats)
		if err != nil {
			t.Fatal(err)
		}
		if err := df.Close(); err != nil {
			t.Fatal(err)
		}
		if err := bdb.Save(burstPath); err != nil {
			t.Fatal(err)
		}
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
		store.Close()
	}

	// Query phase: a fresh process would do exactly this.
	store, err := seqstore.Open(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	feats, err := vptree.ReadFeatures(featPath)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := spectral.NewArena(feats)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := spectral.Prepare(q.Values)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Release()
	res, _, err := knn.Scan(pq, 2, arena, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	// Verify exactness against a direct scan of the reopened store.
	best := math.Inf(1)
	buf := make([]float64, 128)
	for id := 0; id < store.Len(); id++ {
		if err := store.GetInto(id, buf); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := range buf {
			d := buf[i] - q.Values[i]
			sum += d * d
		}
		if d := math.Sqrt(sum); d < best {
			best = d
		}
	}
	if math.Abs(res[0].Dist-best) > 1e-9 {
		t.Errorf("reopened features' 1NN %v vs scan %v", res[0].Dist, best)
	}

	// Burst DB reloads and answers SQL.
	bdb, err := loadBurstDB(burstPath)
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, err := minisql.Run(bdb, "SELECT * FROM bursts WHERE startdate < 64 AND enddate > 32")
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := bdb.Overlapping(33, 63, burstdb.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRes.Records) != len(ref) {
		t.Errorf("sql %d rows vs overlap API %d", len(sqlRes.Records), len(ref))
	}
}

// TestGenlogToEngine runs the data path an external user follows: write a
// dataset with the genlog format, load it back, build an engine, query it.
func TestGenlogToEngine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 79)
	orig := append(g.Exemplars(), g.Dataset(20)...)
	st, err := seqstore.Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	namesFile := ""
	for _, s := range orig {
		if _, err := st.Append(s.Values); err != nil {
			t.Fatal(err)
		}
		namesFile += s.Name + "\n"
	}
	st.Close()
	if err := writeFile(path+".names", namesFile); err != nil {
		t.Fatal(err)
	}

	loaded, err := querylog.LoadBinary(path, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(loaded, core.Config{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	id, ok := engine.Lookup(querylog.Cinema)
	if !ok {
		t.Fatal("cinema lost in round trip")
	}
	det, err := engine.PeriodsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasPeriodNear(7, 0.3) {
		t.Errorf("weekly period lost: %v", det.Top(3))
	}
}

// --- helpers ---

func burstdbFromSeries(t *testing.T, data []*series.Series) *burstdb.DB {
	t.Helper()
	db := burstdb.New()
	for i, s := range data {
		det, err := burst.DetectStandardized(s.Values, burst.LongWindow, burst.DefaultCutoff)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertBursts(int64(i), det.Bursts); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func loadBurstDB(path string) (*burstdb.DB, error) {
	return burstdb.Load(path)
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
