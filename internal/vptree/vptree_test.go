package vptree

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
)

// fixture builds a standardized dataset, its spectra, a memory store and a
// tree.
type fixture struct {
	values  [][]float64
	store   *seqstore.Memory
	tree    *Tree
	queries [][]float64
}

func buildFixture(t testing.TB, n, seqLen int, opts Options, seed int64) *fixture {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, seed)
	data := querylog.StandardizeAll(g.Dataset(n))
	qs := querylog.StandardizeAll(g.Queries(5))
	store, err := seqstore.NewMemory(seqLen)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{store: store}
	specs := make([]*spectral.HalfSpectrum, n)
	ids := make([]int, n)
	for i, s := range data {
		id, err := store.Append(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		fx.values = append(fx.values, s.Values)
		if specs[i], err = spectral.FromValues(s.Values); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree, err = Build(specs, ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		fx.queries = append(fx.queries, q.Values)
	}
	return fx
}

// bruteKNN is the exact reference answer, in the canonical (dist, id) order
// every search ranks its results in.
func bruteKNN(t testing.TB, values [][]float64, q []float64, k int) []Result {
	t.Helper()
	res := make([]Result, 0, len(values))
	for id, v := range values {
		d, err := series.Euclidean(q, v)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, Result{ID: id, Dist: d})
	}
	sort.Slice(res, func(a, b int) bool {
		if res[a].Dist != res[b].Dist {
			return res[a].Dist < res[b].Dist
		}
		return res[a].ID < res[b].ID
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, Options{}); err == nil {
		t.Error("expected error on empty input")
	}
	h, _ := spectral.FromValues(make([]float64, 8))
	if _, err := Build([]*spectral.HalfSpectrum{h}, []int{0, 1}, Options{}); err == nil {
		t.Error("expected error on ids mismatch")
	}
	h2, _ := spectral.FromValues(make([]float64, 16))
	if _, err := Build([]*spectral.HalfSpectrum{h, h2}, []int{0, 1}, Options{}); err == nil {
		t.Error("expected error on length mismatch")
	}
	// One ID given twice: a search could return it twice.
	specs := make([]*spectral.HalfSpectrum, 20)
	ids := make([]int, 20)
	for i := range specs {
		specs[i], ids[i] = h, i
	}
	ids[5] = 3
	if _, err := Build(specs, ids, Options{}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("a build naming ID 3 twice: error %v, want ErrDuplicateID", err)
	}
}

func TestSearchErrors(t *testing.T) {
	fx := buildFixture(t, 20, 64, Options{Budget: 8}, 1)
	if _, _, err := fx.tree.Search(fx.queries[0], 0, fx.tree.Features(), fx.store); err == nil {
		t.Error("expected error for k=0")
	}
	if _, _, err := fx.tree.Search(make([]float64, 10), 1, fx.tree.Features(), fx.store); err == nil {
		t.Error("expected error for wrong query length")
	}
}

func TestOneNNMatchesLinearScan(t *testing.T) {
	fx := buildFixture(t, 120, 128, Options{Budget: 12}, 2)
	for qi, q := range fx.queries {
		want := bruteKNN(t, fx.values, q, 1)[0]
		got, st, err := fx.tree.Search(q, 1, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("query %d: got %d results", qi, len(got))
		}
		if math.Abs(got[0].Dist-want.Dist) > 1e-9 {
			t.Errorf("query %d: 1NN dist %v (id %d), want %v (id %d)",
				qi, got[0].Dist, got[0].ID, want.Dist, want.ID)
		}
		if st.FullRetrievals == 0 || st.BoundsComputed == 0 {
			t.Errorf("query %d: stats not collected: %+v", qi, st)
		}
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	fx := buildFixture(t, 150, 128, Options{Budget: 16}, 3)
	for _, k := range []int{1, 3, 10} {
		for qi, q := range fx.queries {
			want := bruteKNN(t, fx.values, q, k)
			got, _, err := fx.tree.Search(q, k, fx.tree.Features(), fx.store)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("k=%d query %d: got %d results", k, qi, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Errorf("k=%d query %d rank %d: dist %v, want %v",
						k, qi, i, got[i].Dist, want[i].Dist)
				}
			}
			// Results must be sorted ascending.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Errorf("k=%d query %d: unsorted results", k, qi)
				}
			}
		}
	}
}

// Property: exact kNN equality against brute force across random datasets,
// budgets and methods.
func TestExactnessProperty(t *testing.T) {
	f := func(seed int64, budgetRaw, methodRaw uint8) bool {
		budget := 4 + int(budgetRaw)%20
		method := spectral.Methods()[int(methodRaw)%5]
		fx := buildFixture(t, 60, 64, Options{Budget: budget, Method: method, Seed: seed%100 + 1}, seed)
		q := fx.queries[0]
		want := bruteKNN(t, fx.values, q, 3)
		got, _, err := fx.tree.Search(q, 3, fx.tree.Features(), fx.store)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Logf("method %v budget %d: rank %d got %v want %v",
					method, budget, i, got[i].Dist, want[i].Dist)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestKLargerThanDataset(t *testing.T) {
	fx := buildFixture(t, 10, 64, Options{Budget: 8}, 4)
	got, _, err := fx.tree.Search(fx.queries[0], 25, fx.tree.Features(), fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("got %d results, want all 10", len(got))
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	// With a reasonable budget the index must examine far fewer full
	// sequences than the dataset size (the paper's core efficiency claim).
	fx := buildFixture(t, 400, 256, Options{Budget: 24}, 5)
	totalRetrieved := 0
	for _, q := range fx.queries {
		_, st, err := fx.tree.Search(q, 1, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		totalRetrieved += st.FullRetrievals
	}
	perQuery := float64(totalRetrieved) / float64(len(fx.queries))
	if perQuery > 0.5*400 {
		t.Errorf("avg full retrievals per query = %v of 400; pruning ineffective", perQuery)
	}
	t.Logf("avg full retrievals per 1NN query: %.1f / 400", perQuery)
}

func TestPaperBoundsModeStillExactOnRealisticData(t *testing.T) {
	// With fig. 9 bounds (paper-faithful) results should still match brute
	// force on realistic data (violations were only adversarial).
	fx := buildFixture(t, 100, 128, Options{Budget: 16, PaperBounds: true}, 6)
	for _, q := range fx.queries {
		want := bruteKNN(t, fx.values, q, 1)[0]
		got, _, err := fx.tree.Search(q, 1, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0].Dist-want.Dist) > 1e-9 {
			t.Errorf("paper bounds: got %v want %v", got[0].Dist, want.Dist)
		}
	}
}

func TestHeightIsLogarithmic(t *testing.T) {
	fx := buildFixture(t, 256, 64, Options{Budget: 8, LeafSize: 4}, 7)
	h := fx.tree.Height()
	if h < 4 || h > 40 {
		t.Errorf("height %d for 256 items looks degenerate", h)
	}
	if fx.tree.Len() != 256 || fx.tree.SeqLen() != 64 {
		t.Errorf("Len/SeqLen = %d/%d", fx.tree.Len(), fx.tree.SeqLen())
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	// Identical sequences force degenerate splits; the build must still
	// terminate and search must still be exact.
	seqLen := 32
	store, _ := seqstore.NewMemory(seqLen)
	rng := rand.New(rand.NewSource(8))
	base := make([]float64, seqLen)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	var specs []*spectral.HalfSpectrum
	var ids []int
	var values [][]float64
	for i := 0; i < 30; i++ {
		v := append([]float64(nil), base...)
		if i >= 20 { // ten distinct stragglers
			v[i%seqLen] += 5
		}
		id, _ := store.Append(v)
		h, err := spectral.FromValues(v)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, h)
		ids = append(ids, id)
		values = append(values, v)
	}
	tree, err := Build(specs, ids, Options{Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), base...)
	q[0] += 0.01
	want := bruteKNN(t, values, q, 5)
	got, _, err := tree.Search(q, 5, tree.Features(), store)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestDiskFeaturesRoundTrip(t *testing.T) {
	fx := buildFixture(t, 60, 64, Options{Budget: 8}, 9)
	path := filepath.Join(t.TempDir(), "features.bin")
	disk, err := WriteFeatures(path, fx.tree.Features())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if len(disk.offsets) != len(fx.tree.Features()) {
		t.Fatalf("%d features on disk", len(disk.offsets))
	}
	for ref, want := range fx.tree.Features() {
		got, err := disk.Feature(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.Method != want.Method || got.N != want.N ||
			got.MinPower != want.MinPower || got.Err != want.Err {
			t.Fatalf("ref %d: header mismatch: %+v vs %+v", ref, got, want)
		}
		if len(got.Positions) != len(want.Positions) {
			t.Fatalf("ref %d: k mismatch", ref)
		}
		for i := range want.Positions {
			if got.Positions[i] != want.Positions[i] || got.Coeffs[i] != want.Coeffs[i] {
				t.Fatalf("ref %d coeff %d mismatch", ref, i)
			}
		}
	}
	if disk.Reads() == 0 {
		t.Error("read counter not advancing")
	}
	if _, err := disk.Feature(-1); err == nil {
		t.Error("expected error for bad ref")
	}
	if _, err := disk.Feature(len(disk.offsets)); err == nil {
		t.Error("expected error for out-of-range ref")
	}
}

func TestSearchWithDiskFeaturesMatchesMemory(t *testing.T) {
	fx := buildFixture(t, 80, 128, Options{Budget: 12}, 10)
	disk, err := WriteFeatures(filepath.Join(t.TempDir(), "f.bin"), fx.tree.Features())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, q := range fx.queries {
		mem, _, err := fx.tree.Search(q, 3, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		dsk, _, err := fx.tree.Search(q, 3, disk, fx.store)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mem {
			if mem[i].ID != dsk[i].ID || math.Abs(mem[i].Dist-dsk[i].Dist) > 1e-12 {
				t.Errorf("rank %d: memory %+v vs disk %+v", i, mem[i], dsk[i])
			}
		}
	}
}

func TestMemoryFeaturesBadRef(t *testing.T) {
	m := MemoryFeatures{}
	if _, err := m.Feature(0); err == nil {
		t.Error("expected error")
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if medianOf([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median wrong")
	}
}

func BenchmarkSearch1NN(b *testing.B) {
	fx := buildFixture(b, 1000, 256, Options{Budget: 16}, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fx.tree.Search(fx.queries[i%len(fx.queries)], 1, fx.tree.Features(), fx.store); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild500(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 12)
	data := querylog.StandardizeAll(g.Dataset(500))
	specs := make([]*spectral.HalfSpectrum, len(data))
	ids := make([]int, len(data))
	for i, s := range data {
		var err error
		if specs[i], err = spectral.FromValues(s.Values); err != nil {
			b.Fatal(err)
		}
		ids[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(specs, ids, Options{Budget: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression: Options{Budget: n} without an explicit Method must default to
// BestMinError (Method's zero value is reserved as "unset", not GEMINI —
// an earlier bug silently built GEMINI trees for such options).
func TestDefaultMethodIsBestMinError(t *testing.T) {
	fx := buildFixture(t, 20, 64, Options{Budget: 8}, 60)
	for ref, c := range fx.tree.Features() {
		if c.Method != spectral.BestMinError {
			t.Fatalf("feature %d compressed with %v, want BestMinError", ref, c.Method)
		}
	}
	// An explicit GEMINI request must be honored, not overwritten.
	fx2 := buildFixture(t, 20, 64, Options{Budget: 8, Method: spectral.GEMINI}, 61)
	if got := fx2.tree.Features()[0].Method; got != spectral.GEMINI {
		t.Fatalf("explicit GEMINI became %v", got)
	}
}

// Height returns the height of the tree (a single leaf has height 1).
func (t *Tree) Height() int { return t.flat.height(0) }

// height is the height of node ni's subtree (a leaf has height 1).
func (f *flatIndex) height(ni int32) int {
	fn := &f.nodes[ni]
	if fn.leafLo >= 0 {
		return 1
	}
	return 1 + max(f.height(fn.left), f.height(fn.right))
}
