package spectral

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/stats"
)

// mustArena packs the compressions of every series in values under (m,
// budget) and returns the arena plus the per-feature Compressed views so
// tests can compare both paths.
func mustArena(t testing.TB, values [][]float64, m Method, budget int) (*Arena, []*Compressed) {
	t.Helper()
	feats := make([]*Compressed, len(values))
	for i, v := range values {
		c, err := Compress(mustSpectrum(t, v), m, budget)
		if err != nil {
			t.Fatal(err)
		}
		feats[i] = c
	}
	a, err := NewArena(feats)
	if err != nil {
		t.Fatal(err)
	}
	return a, feats
}

// The block kernel must be *bit-identical* to the scalar path — not merely
// close. Both run the same float64 operations in the same order, so any
// difference at all is a kernel bug that could flip a prune decision.
func TestArenaBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 33, 64, 128} {
		values := make([][]float64, 12)
		for i := range values {
			values[i] = stats.Standardize(randSeries(rng, n))
		}
		q := mustSpectrum(t, stats.Standardize(randSeries(rng, n)))
		ctx := NewQueryContext(q)
		for _, m := range Methods() {
			for _, budget := range []int{2, 5, 8} {
				a, feats := mustArena(t, values, m, budget)
				refs := make([]int32, len(feats))
				for i := range refs {
					refs[i] = int32(i)
				}
				lbs := make([]float64, len(refs))
				ubs := make([]float64, len(refs))
				for _, safe := range []bool{false, true} {
					if err := a.BoundsBlock(ctx, refs, safe, lbs, ubs); err != nil {
						t.Fatal(err)
					}
					for i, c := range feats {
						var lbW, ubW float64
						var err error
						if safe {
							lbW, ubW, err = c.SafeBoundsFast(ctx)
						} else {
							lbW, ubW, err = c.BoundsFast(ctx)
						}
						if err != nil {
							t.Fatal(err)
						}
						if lbs[i] != lbW || (ubs[i] != ubW && !(math.IsInf(ubs[i], 1) && math.IsInf(ubW, 1))) {
							t.Fatalf("n=%d %v budget=%d safe=%v feat %d: block (%v,%v) vs scalar (%v,%v)",
								n, m, budget, safe, i, lbs[i], ubs[i], lbW, ubW)
						}
						// The one-entry view must agree exactly too.
						lb1, ub1, err := a.BoundsAt(ctx, i, safe)
						if err != nil {
							t.Fatal(err)
						}
						if lb1 != lbs[i] || (ub1 != ubs[i] && !(math.IsInf(ub1, 1) && math.IsInf(ubs[i], 1))) {
							t.Fatalf("BoundsAt(%d) diverges from BoundsBlock", i)
						}
					}
				}
			}
		}
	}
}

// Property over randomized inputs: for every method/budget/length, block
// kernel == scalar path bit for bit, including variable-k CompressEnergy
// features and the Haar basis.
func TestArenaKernelEquivalenceProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8, haar bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(120)
		if haar {
			// Haar requires a power-of-two length.
			n = 1 << (4 + rng.Intn(4))
		}
		budget := 2 + int(budgetRaw)%12
		count := 3 + rng.Intn(20)
		spectrum := func(x []float64) *HalfSpectrum {
			var h *HalfSpectrum
			var err error
			if haar {
				h, err = FromValuesHaar(x)
			} else {
				h, err = FromValues(x)
			}
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		ctx := NewQueryContext(spectrum(stats.Standardize(randSeries(rng, n))))
		for _, m := range Methods() {
			feats := make([]*Compressed, count)
			for i := range feats {
				h := spectrum(stats.Standardize(randSeries(rng, n)))
				var c *Compressed
				var err error
				// Exercise variable-k features alongside fixed budgets.
				if m == BestMinError && i%3 == 2 {
					c, err = CompressEnergy(h, 0.6+0.3*rng.Float64())
				} else {
					c, err = Compress(h, m, budget)
				}
				if err != nil {
					return false
				}
				feats[i] = c
			}
			a, err := NewArena(feats)
			if err != nil {
				return false
			}
			refs := make([]int32, count)
			for i := range refs {
				refs[i] = int32(i)
			}
			lbs := make([]float64, count)
			ubs := make([]float64, count)
			for _, safe := range []bool{false, true} {
				if err := a.BoundsBlock(ctx, refs, safe, lbs, ubs); err != nil {
					return false
				}
				for i, c := range feats {
					var lbW, ubW float64
					if safe {
						lbW, ubW, err = c.SafeBoundsFast(ctx)
					} else {
						lbW, ubW, err = c.BoundsFast(ctx)
					}
					if err != nil {
						return false
					}
					if lbs[i] != lbW {
						t.Logf("%v safe=%v feat %d: lb %v vs %v", m, safe, i, lbs[i], lbW)
						return false
					}
					if ubs[i] != ubW && !(math.IsInf(ubs[i], 1) && math.IsInf(ubW, 1)) {
						t.Logf("%v safe=%v feat %d: ub %v vs %v", m, safe, i, ubs[i], ubW)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Prune decisions — not just distances — must match: for any threshold the
// kernel's lb/ub land on the same side as the scalar path's.
func TestArenaPruneDecisionsMatchScalar(t *testing.T) {
	g := querylog.New(83)
	data := querylog.StandardizeAll(g.Dataset(30))
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s.Values
	}
	q := mustSpectrum(t, g.Queries(1)[0].Standardized().Values)
	ctx := NewQueryContext(q)
	a, feats := mustArena(t, values, BestMinError, 8)
	refs := make([]int32, len(feats))
	for i := range refs {
		refs[i] = int32(i)
	}
	lbs := make([]float64, len(refs))
	ubs := make([]float64, len(refs))
	if err := a.BoundsBlock(ctx, refs, true, lbs, ubs); err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{0.5, 1, 2, 5, 10, 20} {
		for i, c := range feats {
			lbW, ubW, err := c.SafeBoundsFast(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if (lbs[i] > sigma) != (lbW > sigma) || (ubs[i] < sigma) != (ubW < sigma) {
				t.Fatalf("sigma=%v feat %d: prune decision diverges", sigma, i)
			}
		}
	}
}

func TestArenaRejectsMixedFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h16 := mustSpectrum(t, stats.Standardize(randSeries(rng, 16)))
	h32 := mustSpectrum(t, stats.Standardize(randSeries(rng, 32)))
	cBME, _ := Compress(h16, BestMinError, 4)
	cWang, _ := Compress(h16, Wang, 4)
	cLong, _ := Compress(h32, BestMinError, 4)

	if _, err := NewArena(nil); err == nil {
		t.Error("expected error for empty arena")
	}
	if _, err := NewArena([]*Compressed{cBME, nil}); err == nil {
		t.Error("expected error for nil feature")
	}
	if _, err := NewArena([]*Compressed{cBME, cWang}); err != ErrArenaMixed {
		t.Errorf("mixed method: got %v", err)
	}
	if _, err := NewArena([]*Compressed{cBME, cLong}); err != ErrArenaMixed {
		t.Errorf("mixed length: got %v", err)
	}
	if _, err := NewArena([]*Compressed{{Method: 0, N: 16}}); err == nil {
		t.Error("expected error for unset method")
	}
}

// An ordered arena is the arena of the features gathered in that order:
// features the order leaves out are not looked at (they may be nil, or of
// another method), and an order that names a feature twice, or one that is not
// there, is refused.
func TestArenaOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	feats := make([]*Compressed, 9)
	for i := range feats {
		c, err := Compress(mustSpectrum(t, stats.Standardize(randSeries(rng, 64))), BestMinError, 3+i)
		if err != nil {
			t.Fatal(err)
		}
		feats[i] = c
	}
	order := []int32{7, 0, 8, 3, 1}
	gathered := make([]*Compressed, len(order))
	for s, i := range order {
		gathered[s] = feats[i]
	}
	feats[2] = nil
	feats[5], _ = Compress(mustSpectrum(t, stats.Standardize(randSeries(rng, 64))), Wang, 4)
	want, err := NewArena(gathered)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewArenaOrdered(feats, order)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ordered arena differs from the arena of the gathered features:\n got  %+v\n want %+v", got, want)
	}
	for name, bad := range map[string][]int32{"twice": {1, 3, 1}, "negative": {0, -1}, "beyond": {0, 9}, "nil": {0, 2}, "empty": {}} {
		if _, err := NewArenaOrdered(feats, bad); err == nil {
			t.Errorf("order %s %v: no error", name, bad)
		}
	}
	if _, err := NewArenaOrdered(feats, []int32{4, 5}); err != ErrArenaMixed {
		t.Errorf("order naming a Wang feature: got %v", err)
	}
}

// Appending features one by one gives the arena NewArena packs of them all at
// once, row for row — also when they differ in size, as the §8 energy scheme's
// do — and a feature the arena refuses leaves it as it was.
func TestArenaAppendMatchesNewArena(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	feats := make([]*Compressed, 12)
	for i := range feats {
		c, err := CompressEnergy(mustSpectrum(t, stats.Standardize(randSeries(rng, 64))), 0.5+0.04*float64(i))
		if err != nil {
			t.Fatal(err)
		}
		feats[i] = c
	}
	want, err := NewArena(feats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewArena(feats[:5])
	if err != nil {
		t.Fatal(err)
	}
	wang, _ := Compress(mustSpectrum(t, stats.Standardize(randSeries(rng, 64))), Wang, 4)
	long, _ := CompressEnergy(mustSpectrum(t, stats.Standardize(randSeries(rng, 128))), 0.8)
	for i, c := range feats[5:] {
		for name, bad := range map[string]*Compressed{"nil": nil, "another method": wang, "another length": long} {
			if _, err := got.Append(bad); err == nil {
				t.Fatalf("append of %s feature: no error", name)
			}
		}
		slot, err := got.Append(c)
		if err != nil || slot != 5+i || got.Len() != 6+i {
			t.Fatalf("append %d: slot %d, len %d, err %v", i, slot, got.Len(), err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appended arena differs from the packed one:\n got  %+v\n want %+v", got, want)
	}
}

func TestArenaErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h16 := mustSpectrum(t, stats.Standardize(randSeries(rng, 16)))
	h32 := mustSpectrum(t, stats.Standardize(randSeries(rng, 32)))
	c, err := Compress(h16, BestMinError, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArena([]*Compressed{c})
	if err != nil {
		t.Fatal(err)
	}
	var lb, ub [1]float64
	if err := a.BoundsBlock(NewQueryContext(h32), []int32{0}, true, lb[:], ub[:]); err != ErrMismatch {
		t.Errorf("length mismatch: got %v", err)
	}
	ctx := NewQueryContext(h16)
	if err := a.BoundsBlock(ctx, []int32{5}, true, lb[:], ub[:]); err == nil {
		t.Error("expected error for out-of-range ref")
	}
	if err := a.BoundsBlock(ctx, []int32{-1}, true, lb[:], ub[:]); err == nil {
		t.Error("expected error for negative ref")
	}
	if err := a.BoundsBlock(ctx, []int32{0, 0}, true, lb[:], ub[:]); err == nil {
		t.Error("expected error for short output slices")
	}
	if a.Len() != 1 || a.Coeffs() != len(c.Positions) || a.Method() != BestMinError {
		t.Errorf("accessors: len=%d coeffs=%d method=%v", a.Len(), a.Coeffs(), a.Method())
	}
}

func BenchmarkArenaBoundsBlock32(b *testing.B) {
	g := querylog.New(90)
	data := querylog.StandardizeAll(g.Dataset(32))
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s.Values
	}
	q := mustSpectrum(b, g.Queries(1)[0].Standardized().Values)
	ctx := NewQueryContext(q)
	a, _ := mustArena(b, values, BestMinError, 16)
	refs := make([]int32, a.Len())
	for i := range refs {
		refs[i] = int32(i)
	}
	lbs := make([]float64, len(refs))
	ubs := make([]float64, len(refs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.BoundsBlock(ctx, refs, true, lbs, ubs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsWalkOrder guards what packing the arena in walk order buys,
// and what a bound that need not be finished saves. It bounds the paper_knn
// arena (16 384 features of 1 024 points at c = 16, 4.3 MB) in leaf-sized
// blocks, once with the slots in increasing order — what a descending search
// asks of an arena packed in its walk order — and once with them in a random
// permutation, which is what the same search asked of an arena packed in
// feature-ID order. ns/op is per bound; the gap between the two is the cache
// misses the layout spares, and it closes on a machine whose cache holds the
// whole arena. Both finish every bound. The third row repeats the sequential
// blocks with the cut at the arena's median stored-row distance (the part of
// a bound the cut is tested against), so half of the entries are abandoned
// somewhere along their rows: its gap to "sequential" is what an abandoned
// entry does not pay.
func BenchmarkBoundsWalkOrder(b *testing.B) {
	const features, block = 16384, 4
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 91)
	data := querylog.StandardizeAll(g.Dataset(features))
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s.Values
	}
	ctx := NewQueryContext(mustSpectrum(b, g.Queries(1)[0].Standardized().Values))
	a, _ := mustArena(b, values, BestMinError, 16)
	sequential := make([]int32, features)
	for i := range sequential {
		sequential[i] = int32(i)
	}
	random := make([]int32, features)
	for i, r := range rand.New(rand.NewSource(91)).Perm(features) {
		random[i] = int32(r)
	}
	distSq := make([]float64, features)
	for r := range distSq {
		for j := a.starts[r]; j < a.starts[r+1]; j++ {
			t := ctx.tab[a.positions[j]]
			dre, dim := t.re-a.re[j], t.im-a.im[j]
			distSq[r] += t.w * (dre*dre + dim*dim)
		}
	}
	sort.Float64s(distSq)
	median := distSq[features/2]
	var lbs, ubs [block]float64
	for _, order := range []struct {
		name  string
		slots []int32
		cutSq float64
	}{{"sequential", sequential, math.Inf(1)}, {"random", random, math.Inf(1)}, {"abandoning", sequential, median}} {
		b.Run(order.name, func(b *testing.B) {
			abandoned := 0
			for i := 0; i < b.N; i += block {
				at := i % features
				n, err := a.BoundsBlockCut(ctx, order.slots[at:at+block], true, order.cutSq, lbs[:], ubs[:])
				if err != nil {
					b.Fatal(err)
				}
				abandoned += n
			}
			b.ReportMetric(float64(abandoned)/float64(b.N), "abandoned/op")
		})
	}
}
