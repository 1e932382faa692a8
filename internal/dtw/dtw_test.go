package dtw

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/israce"
	"repro/internal/knn"
	"repro/internal/querylog"
	"repro/internal/series"
)

// refDistance is the definition the banded kernel must match bit for bit: the
// full n×n DP matrix, every cell outside the band +Inf, the three-way min
// taken in the order (left, up, diagonal) with float compares — so a NaN
// predecessor is skipped — and the row abandoned once its smallest cell
// exceeds bound². It is the only other DTW in the repository.
func refDistance(a, b []float64, r int, bound float64) (float64, bool) {
	n := len(a)
	if r >= n {
		r = n - 1
	}
	limit := math.Inf(1)
	if !math.IsInf(bound, 1) {
		limit = bound * bound
	}
	inf := math.Inf(1)
	dp := refMatrix(n)
	defer func() { // put back the +Inf this run overwrote: the band only
		for i := 0; i < n; i++ {
			for j := max(0, i-r); j <= min(n-1, i+r); j++ {
				dp[i][j] = inf
			}
		}
	}()
	for i := 0; i < n; i++ {
		rowMin := inf
		for j := max(0, i-r); j <= min(n-1, i+r); j++ {
			d := a[i] - b[j]
			best := inf
			if i == 0 && j == 0 {
				best = 0
			} else {
				if j > 0 && dp[i][j-1] < best {
					best = dp[i][j-1]
				}
				if i > 0 && dp[i-1][j] < best {
					best = dp[i-1][j]
				}
				if i > 0 && j > 0 && dp[i-1][j-1] < best {
					best = dp[i-1][j-1]
				}
			}
			dp[i][j] = best + d*d
			if dp[i][j] < rowMin {
				rowMin = dp[i][j]
			}
		}
		if rowMin > limit {
			return inf, true
		}
	}
	return math.Sqrt(dp[n-1][n-1]), false
}

// refCells backs refMatrix: all +Inf between runs, so the thousands of
// reference runs of the sweep below do not each pay an n² fill.
var refCells []float64

func refMatrix(n int) [][]float64 {
	if len(refCells) < n*n {
		refCells = make([]float64, n*n)
		for i := range refCells {
			refCells[i] = math.Inf(1)
		}
	}
	dp := make([][]float64, n)
	for i := range dp {
		dp[i] = refCells[i*n : (i+1)*n]
	}
	return dp
}

// refLBKeogh is the three-way switch LBKeogh replaced.
func refLBKeogh(e *Envelope, x []float64) float64 {
	sum := 0.0
	for i, v := range x {
		switch {
		case v > e.Upper[i]:
			d := v - e.Upper[i]
			sum += d * d
		case v < e.Lower[i]:
			d := e.Lower[i] - v
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkKernelMatchesRef(t *testing.T, a, b []float64, r int, bound float64) {
	t.Helper()
	wantD, wantAb := refDistance(a, b, r, bound)
	gotD, gotAb, err := distanceEarlyAbandon(a, b, r, bound)
	if err != nil {
		t.Fatalf("n=%d r=%d bound=%v: %v", len(a), r, bound, err)
	}
	if gotAb != wantAb || !sameBits(gotD, wantD) {
		t.Fatalf("n=%d r=%d bound=%v: got (%v, %v), reference DP (%v, %v)\na=%v\nb=%v",
			len(a), r, bound, gotD, gotAb, wantD, wantAb, a, b)
	}
}

// boundsAround returns bounds below, exactly at and above the true
// distance, plus the degenerate ones the limit computation special-cases.
func boundsAround(a, b []float64, r int) []float64 {
	d, _ := refDistance(a, b, r, math.Inf(1))
	return []float64{
		d / 2, math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)), 2 * d,
		0, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	}
}

// The kernel against the reference DP: every length 1–70, bands from
// Euclidean to unconstrained, bounds on both sides of and exactly at the
// true distance, and NaN/±Inf poison at every position of either input.
// Small integers keep every path cost exactly representable, so "bound at
// the distance" really is an exact tie.
func TestKernelMatchesReferenceDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stride := 1
	if israce.Enabled {
		stride = 4 // one goroutine, nothing to race: thin the sweep the detector slows tenfold
	}
	for n := 1; n <= 70; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = float64(rng.Intn(9)), float64(rng.Intn(9))
		}
		for _, r := range []int{0, 1, 2, 7, n - 1, n, n + 5} {
			for _, bound := range boundsAround(a, b, r) {
				checkKernelMatchesRef(t, a, b, r, bound)
			}
			if r >= n {
				continue // clipped to n−1, which the sweep below covers
			}
			bounds := boundsAround(a, b, r)[1:4] // just below, at, just above
			if r == n-1 && n > 8 {
				bounds = bounds[1:2] // O(n²) cells a run: the exact tie only
			}
			for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for pos := (n - 1) % stride; pos < n; pos += stride {
					pa := append([]float64(nil), a...)
					pa[pos] = poison
					pb := append([]float64(nil), b...)
					pb[n-1-pos] = poison
					for _, bound := range bounds {
						checkKernelMatchesRef(t, pa, b, r, bound)
						checkKernelMatchesRef(t, a, pb, r, bound)
					}
				}
			}
		}
	}
}

func TestKernelMatchesReferenceDPProperty(t *testing.T) {
	prop := func(seed int64, nRaw, rRaw uint8, frac float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%70
		r := int(rRaw) % (n + 3)
		a, b := randSeq(rng, n), randSeq(rng, n)
		exact, _ := refDistance(a, b, r, math.Inf(1))
		// frac is arbitrary; fold it into [0, 2) so bounds land on both
		// sides of the exact distance.
		for _, bound := range []float64{exact * math.Abs(math.Mod(frac, 2)), exact, math.Inf(1)} {
			checkKernelMatchesRef(t, a, b, r, bound)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// LBKeogh against the switch it replaced, bit for bit, including points on
// the envelope, poison in the candidate and poison in the query (which
// poisons the envelope around it).
func TestLBKeoghMatchesSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for n := 1; n <= 70; n++ {
		for _, r := range []int{0, 1, 7, n} {
			q, x := make([]float64, n), make([]float64, n)
			for i := range q {
				q[i], x[i] = float64(rng.Intn(5)), float64(rng.Intn(9))-2
			}
			check := func(q, x []float64) {
				t.Helper()
				env, err := NewEnvelope(q, r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := lbKeogh(env, x)
				if err != nil {
					t.Fatal(err)
				}
				if want := refLBKeogh(env, x); !sameBits(got, want) {
					t.Fatalf("n=%d r=%d: LBKeogh %v, switch %v\nq=%v\nx=%v", n, r, got, want, q, x)
				}
			}
			check(q, x)
			for _, poison := range poisons {
				for pos := 0; pos < n; pos++ {
					px := append([]float64(nil), x...)
					px[pos] = poison
					pq := append([]float64(nil), q...)
					pq[pos] = poison
					check(q, px)
					check(pq, x)
					check(pq, px)
				}
			}
		}
	}
	// An envelope whose curves cross (only a caller can build one) still
	// takes the upper excursion first, as the switch did.
	crossed := &Envelope{Upper: []float64{0, 1}, Lower: []float64{2, 3}}
	got, _ := lbKeogh(crossed, []float64{1, 2})
	if want := refLBKeogh(crossed, []float64{1, 2}); !sameBits(got, want) {
		t.Fatalf("crossed envelope: %v vs switch %v", got, want)
	}
}

func randSeq(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDistanceErrors(t *testing.T) {
	if _, err := Distance(nil, nil, 1); err != ErrLength {
		t.Error("expected ErrLength for empty")
	}
	if _, err := Distance([]float64{1}, []float64{1, 2}, 1); err != ErrLength {
		t.Error("expected ErrLength for mismatch")
	}
	if _, err := Distance([]float64{1}, []float64{2}, -1); err != ErrBand {
		t.Error("expected ErrBand")
	}
	if _, err := NewEnvelope(nil, 1); err != ErrLength {
		t.Error("expected ErrLength from NewEnvelope")
	}
	if _, err := NewEnvelope([]float64{1}, -2); err != ErrBand {
		t.Error("expected ErrBand from NewEnvelope")
	}
	e, _ := NewEnvelope([]float64{1, 2}, 1)
	if _, err := lbKeogh(e, []float64{1}); err != ErrLength {
		t.Error("expected ErrLength from LBKeogh")
	}
}

func TestBandZeroIsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randSeq(rng, 64), randSeq(rng, 64)
	d, err := Distance(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := series.Euclidean(a, b)
	if math.Abs(d-e) > 1e-9 {
		t.Errorf("DTW(r=0) = %v, Euclidean = %v", d, e)
	}
}

func TestIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randSeq(rng, 50), randSeq(rng, 50)
	if d, _ := Distance(a, a, 5); d != 0 {
		t.Errorf("DTW(a,a) = %v", d)
	}
	dab, _ := Distance(a, b, 5)
	dba, _ := Distance(b, a, 5)
	if math.Abs(dab-dba) > 1e-9 {
		t.Errorf("DTW not symmetric: %v vs %v", dab, dba)
	}
}

func TestWarpingHelpsShiftedSignal(t *testing.T) {
	// A signal vs its 2-day shift: DTW with r>=2 should be far below
	// Euclidean.
	n := 128
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = math.Sin(2 * math.Pi * float64(i) / 16)
		b[i] = math.Sin(2 * math.Pi * float64(i+2) / 16)
	}
	eu, _ := series.Euclidean(a, b)
	d, err := Distance(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d > eu/3 {
		t.Errorf("DTW %v should be far below Euclidean %v for a shifted signal", d, eu)
	}
}

// Property: LBKeogh ≤ DTW ≤ Euclidean, and DTW shrinks (weakly) as the
// band widens.
func TestBoundSandwichProperty(t *testing.T) {
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := 4 + int(nRaw)%60
		r := int(rRaw) % 10
		rng := rand.New(rand.NewSource(seed))
		a, b := randSeq(rng, n), randSeq(rng, n)
		env, err := NewEnvelope(a, r)
		if err != nil {
			return false
		}
		lb, err := lbKeogh(env, b)
		if err != nil {
			return false
		}
		d, err := Distance(a, b, r)
		if err != nil {
			return false
		}
		ub, err := UpperBound(a, b)
		if err != nil {
			return false
		}
		if lb > d+1e-9 || d > ub+1e-9 {
			t.Logf("n=%d r=%d: lb=%v d=%v ub=%v", n, r, lb, d, ub)
			return false
		}
		wider, err := Distance(a, b, r+3)
		if err != nil {
			return false
		}
		return wider <= d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEarlyAbandonConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randSeq(rng, 64), randSeq(rng, 64)
	exact, _ := Distance(a, b, 5)
	d, abandoned, err := distanceEarlyAbandon(a, b, 5, exact+1)
	if err != nil || abandoned || math.Abs(d-exact) > 1e-9 {
		t.Errorf("loose bound: d=%v abandoned=%v err=%v want %v", d, abandoned, err, exact)
	}
	d, abandoned, err = distanceEarlyAbandon(a, b, 5, exact/2)
	if err != nil || !abandoned || !math.IsInf(d, 1) {
		t.Errorf("tight bound: d=%v abandoned=%v err=%v", d, abandoned, err)
	}
}

func TestEnvelopeContainsQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := randSeq(rng, 100)
	e, err := NewEnvelope(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range q {
		if v > e.Upper[i] || v < e.Lower[i] {
			t.Fatalf("envelope excludes q[%d]", i)
		}
	}
	// LBKeogh of the query against its own envelope is 0.
	lb, _ := lbKeogh(e, q)
	if lb != 0 {
		t.Errorf("self LBKeogh = %v", lb)
	}
}

// searchStats counts one cascade's work: rows bounded by LB_Keogh, full
// DTW evaluations (abandoned ones included) and the ones that abandoned.
type searchStats struct{ LBComputed, FullDTW, Abandoned int }

// searchK is the DTW k-NN cascade the engine's DTW query runs, over a plain
// collection and with no gate: every row bounded by LowerBound, then knn's
// filter and refine measuring the rows in bound order with Distance.
func searchK(coll [][]float64, q []float64, r, k int) ([]knn.Result, searchStats, error) {
	var st searchStats
	dt := Get()
	defer dt.Release()
	if err := dt.Query(q, r); err != nil {
		return nil, st, err
	}
	sc := knn.Get(k)
	defer sc.Release()
	for id, x := range coll {
		lb, err := dt.LowerBound(x)
		if err != nil {
			return nil, st, err
		}
		st.LBComputed++
		sc.Add(id, lb, math.Inf(1))
	}
	sc.Filter(nil)
	res, rs, err := sc.RefineBy(nil, nil, func(id int, bound float64) (float64, bool, error) {
		return dt.Distance(coll[id], bound)
	})
	st.FullDTW, st.Abandoned = rs.ExactDistances, rs.EarlyAbandons
	return res, st, err
}

func TestSearchMatchesBruteForce(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 6)
	data := querylog.StandardizeAll(g.Dataset(60))
	queries := querylog.StandardizeAll(g.Queries(5))
	coll := make([][]float64, len(data))
	for i, s := range data {
		coll[i] = s.Values
	}
	for _, q := range queries {
		got, st, err := searchK(coll, q.Values, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := got[0]
		// Brute force.
		bestD, bestI := math.Inf(1), -1
		for i, x := range coll {
			d, err := Distance(x, q.Values, 6)
			if err != nil {
				t.Fatal(err)
			}
			if d < bestD {
				bestD, bestI = d, i
			}
		}
		if math.Abs(res.Dist-bestD) > 1e-9 {
			t.Errorf("search 1NN dist %v (id %d), brute %v (id %d)",
				res.Dist, res.ID, bestD, bestI)
		}
		if st.FullDTW > st.LBComputed {
			t.Errorf("stats inconsistent: %+v", st)
		}
		if st.FullDTW == len(coll) {
			t.Logf("warning: LB pruned nothing for %q", q.Name)
		}
	}
}

// An empty collection has no neighbours and costs no bound or distance; an
// empty query is rejected before any row is read.
func TestSearchEmptyCollection(t *testing.T) {
	got, st, err := searchK(nil, []float64{1}, 1, 1)
	if err != nil || len(got) != 0 || st != (searchStats{}) {
		t.Errorf("empty collection: %v, %+v, %v; want no neighbours, no work, no error", got, st, err)
	}
	if _, _, err := searchK([][]float64{{1}}, nil, 1, 1); !errors.Is(err, ErrLength) {
		t.Errorf("empty query: err = %v, want ErrLength", err)
	}
}

func TestSearchKMatchesBruteForce(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 96, 10)
	data := querylog.StandardizeAll(g.Dataset(50))
	q := querylog.StandardizeAll(g.Queries(1))[0]
	coll := make([][]float64, len(data))
	for i, s := range data {
		coll[i] = s.Values
	}
	for _, k := range []int{1, 3, 7, 60} {
		got, _, err := searchK(coll, q.Values, 5, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		var all []knnPair
		for i, x := range coll {
			d, err := Distance(x, q.Values, 5)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, knnPair{i, d})
		}
		sortPairs(all)
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), want)
		}
		for i := 0; i < want; i++ {
			if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
				t.Errorf("k=%d rank %d: %v vs brute %v", k, i, got[i].Dist, all[i].d)
			}
		}
	}
}

type knnPair struct {
	i int
	d float64
}

func sortPairs(p []knnPair) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].d < p[j-1].d; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

func BenchmarkDTW1024Band5pct(b *testing.B) {
	g := querylog.New(7)
	x := g.Exemplar(querylog.Cinema).Standardized().Values
	y := g.Exemplar(querylog.Nordstrom).Standardized().Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(x, y, 51); err != nil {
			b.Fatal(err)
		}
	}
}

// The repository benchmark's DTW requests use band 7.
func BenchmarkDTW1024Band7(b *testing.B) {
	g := querylog.New(7)
	x := g.Exemplar(querylog.Cinema).Standardized().Values
	y := g.Exemplar(querylog.Nordstrom).Standardized().Values
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(x, y, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLBKeogh1024(b *testing.B) {
	g := querylog.New(8)
	x := g.Exemplar(querylog.Cinema).Standardized().Values
	y := g.Exemplar(querylog.Nordstrom).Standardized().Values
	env, err := NewEnvelope(x, 51)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lbKeogh(env, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchCascade(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 9)
	data := querylog.StandardizeAll(g.Dataset(200))
	q := querylog.StandardizeAll(g.Queries(1))[0]
	coll := make([][]float64, len(data))
	for i, s := range data {
		coll[i] = s.Values
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := searchK(coll, q.Values, 12, 1); err != nil {
			b.Fatal(err)
		}
	}
}
