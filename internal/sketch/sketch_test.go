package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/series"
	"repro/internal/stats"
)

// checkSound is the tier's one contract: whenever Exceeds says yes, the
// in-order float64 kernel the refinement would have run abandons at that
// bound (so skipping the row changes nothing), and it never says yes about a
// row it was told is unsketchable. Every kernel this machine can run is held
// to it, and to the same answer.
func checkSound(t testing.TB, q, x []float64, bound float64) (exceeds bool) {
	t.Helper()
	rows := NewRows(len(x))
	rows.Append(x)
	exceeds = exceedsOnEveryKernel(t, new(Query).Set(q), rows, bound, "q=%v\n x=%v", q, x)
	if !exceeds {
		return false
	}
	if math.IsInf(rows.meta[0].err, 1) {
		t.Fatalf("unsketched row skipped (bound %v)", bound)
	}
	_, abandoned, err := series.EuclideanEarlyAbandon(q, x, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !abandoned {
		d, _ := series.Euclidean(q, x)
		t.Fatalf("skipped a row the exact kernel keeps: bound %v (bits %016x), exact distance %v (bits %016x)\n q=%v\n x=%v",
			bound, math.Float64bits(bound), d, math.Float64bits(d), q, x)
	}
	return true
}

// exceedsOnEveryKernel is query.Exceeds(rows, 0, bound), asked of every kernel
// this machine can run; they must all say the same.
func exceedsOnEveryKernel(t testing.TB, query *Query, rows Rows, bound float64, format string, args ...any) (exceeds bool) {
	t.Helper()
	ForEachKernel(func(kernel string) {
		if got := query.Exceeds(rows, 0, bound); kernel == "portable" {
			exceeds = got
		} else if got != exceeds {
			t.Fatalf("kernels disagree at bound %v: portable %v, %s %v\n "+format, append([]any{bound, exceeds, kernel, got}, args...)...)
		}
	})
	return exceeds
}

// boundsAround returns bounds that straddle the exact distance d as closely
// as float64 allows, plus a spread either side.
func boundsAround(d float64) []float64 {
	return []float64{
		0, d * 0.5, d * 0.9, d * 0.99, d * (1 - 1e-6), d * (1 - 1e-9),
		math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)),
		d * (1 + 1e-9), d * (1 + 1e-6), d * 1.01, d * 2, math.Inf(1), math.NaN(),
	}
}

func zscored(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	// A random walk plus a seasonal term: neighbouring series of one
	// archetype differ by little, as on the benchmark corpus.
	level := 0.0
	for i := range v {
		level += rng.NormFloat64()
		v[i] = level + 8*math.Sin(float64(i)/7)
	}
	stats.StandardizeInPlace(v)
	return v
}

// rowFamilies are the hostile and the ordinary shapes a row can take, each
// paired with the query it is measured against.
func rowFamilies(rng *rand.Rand, n int) map[string][2][]float64 {
	q := zscored(rng, n)
	near := append([]float64(nil), q...)
	for i := range near {
		near[i] += 0.05 * rng.NormFloat64()
	}
	// Rows on the int8 grid sketch exactly (error 0), so equal distances are
	// exact ties the bound must not break.
	grid, gridQ := make([]float64, n), make([]float64, n)
	for i := range grid {
		grid[i] = float64(rng.Intn(255)-127) / 32
		gridQ[i] = float64(rng.Intn(255)-127) / 32
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3.25
	}
	spike := zscored(rng, n)
	spike[rng.Intn(n)] = 1e6
	// The same spike as the engine stores it: z-scored, it is the largest
	// value a row of n points can hold, on the coarsest step a row gets.
	zspike := append([]float64(nil), spike...)
	stats.StandardizeInPlace(zspike)
	denormal := make([]float64, n)
	for i := range denormal {
		denormal[i] = float64(rng.Intn(9)-4) * 5e-324
	}
	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = rng.NormFloat64() * 1e-160 // squares underflow
	}
	huge := make([]float64, n)
	for i := range huge {
		huge[i] = rng.NormFloat64() * 1e200 // squares overflow
	}
	inf, nan := zscored(rng, n), zscored(rng, n)
	inf[rng.Intn(n)] = math.Inf(-1)
	nan[rng.Intn(n)] = math.NaN()
	return map[string][2][]float64{
		"random":       {q, zscored(rng, n)},
		"near":         {q, near},
		"duplicate":    {q, append([]float64(nil), q...)},
		"grid":         {gridQ, grid},
		"grid-dup":     {grid, append([]float64(nil), grid...)},
		"constant":     {q, constant},
		"zero":         {q, make([]float64, n)},
		"zero-query":   {make([]float64, n), zscored(rng, n)},
		"spike":        {q, spike},
		"spike-query":  {spike, q},
		"zspike":       {q, zspike},
		"denormal":     {q, denormal},
		"denormal-q":   {denormal, denormal},
		"tiny":         {tiny, tiny[:n:n]},
		"tiny-vs-zero": {tiny, make([]float64, n)},
		"huge":         {q, huge},
		"huge-query":   {huge, q},
		"inf":          {q, inf},
		"nan":          {q, nan},
		"nan-query":    {nan, q},
		"inf-query":    {inf, q},
	}
}

func TestExceedsImpliesAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 15, 16, 17, 64, 1000, 1024} {
		for trial := 0; trial < 12; trial++ {
			for name, qx := range rowFamilies(rng, n) {
				q, x := qx[0], qx[1]
				d, err := series.Euclidean(q, x)
				if err != nil {
					t.Fatal(err)
				}
				for _, bound := range boundsAround(d) {
					skipped := checkSound(t, q, x, bound)
					if skipped && (name == "duplicate" || name == "grid-dup" || name == "denormal-q") {
						t.Fatalf("%s n=%d: a copy of the query was skipped at bound %v", name, n, bound)
					}
					if skipped && (name == "inf" || name == "nan" || name == "nan-query" || name == "inf-query") {
						t.Fatalf("%s n=%d: skipped at bound %v", name, n, bound)
					}
				}
			}
		}
	}
}

// The bound has to be worth its kilobyte: on z-scored series it must reject
// at 90 % of the true distance (the c = 16 Fourier bound it sits behind has a
// tightness near 0.78 on the benchmark corpus), and exact ties on the grid
// must survive.
func TestExceedsIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		fam := rowFamilies(rng, 1024)
		for _, name := range []string{"random", "zspike", "grid"} {
			q, x := fam[name][0], fam[name][1]
			d, _ := series.Euclidean(q, x)
			if !checkSound(t, q, x, 0.9*d) {
				t.Errorf("%s: not rejected at 0.9 of the distance %v", name, d)
			}
		}
		q, x := fam["grid"][0], fam["grid"][1]
		d, _ := series.Euclidean(q, x)
		if checkSound(t, q, x, d) {
			t.Errorf("grid: rejected at exactly its distance %v", d)
		}
	}
}

func TestUnsketchableIsMarked(t *testing.T) {
	for name, v := range map[string][]float64{
		"nan":  {1, math.NaN(), 2},
		"+inf": {1, math.Inf(1), 2},
		"-inf": {math.Inf(-1), 1, 2},
		"1e40": {1e40, 1, 2},
	} {
		rows := NewRows(len(v))
		rows.Append(v)
		if !math.IsInf(rows.meta[0].err, 1) {
			t.Errorf("%s: row not marked unsketched: %+v", name, rows.meta[0])
		}
		if q := new(Query).Set(v); !math.IsInf(q.err, 1) {
			t.Errorf("%s: query not marked unsketched", name)
		}
		if new(Query).Set([]float64{0, 0, 0}).Exceeds(rows, 0, 0) {
			t.Errorf("%s: unsketched row skipped", name)
		}
	}
	// A finite row at the edge of int8: 127.5 steps would round to 128.
	rows := NewRows(2)
	rows.Append([]float64{127.6, -127.6})
	if m := rows.meta[0]; m.exp != 1 || rows.codes[0] != 64 || rows.codes[1] != -64 {
		t.Errorf("edge row: meta %+v codes %v, want step 2 and codes ±64", m, rows.codes)
	}
}

// A row class the query grid cannot reach as a shift answers false rather
// than guessing: a query far larger than the row, or far smaller.
func TestShiftOutOfRange(t *testing.T) {
	rows := NewRows(2)
	rows.Append([]float64{1, -1})
	for _, q := range [][]float64{{1e9, 1e9}, {1e-9, 1e-9}} {
		if new(Query).Set(q).Exceeds(rows, 0, 0) {
			t.Errorf("query %v: decided across an inexpressible shift", q)
		}
	}
	if !new(Query).Set([]float64{40, 40}).Exceeds(rows, 0, 1) {
		t.Error("a query 40 away was not rejected at bound 1")
	}
	if new(Query).Set([]float64{1, 2, 3}).Exceeds(rows, 0, 0) || new(Query).Set([]float64{5, 5}).Exceeds(rows, 1, 0) ||
		new(Query).Set([]float64{5, 5}).Exceeds(Rows{}, 0, 0) {
		t.Error("a length mismatch, an uncovered id or the empty sketch decided a skip")
	}
}

// Append extends, Truncate cuts, and a snapshot taken before either keeps
// reading what it covered: a re-append after a truncate must not write into
// the old snapshot's rows.
func TestRowsSnapshotIsStable(t *testing.T) {
	rows := NewRows(4)
	for i := 0; i < 5; i++ {
		rows.Append([]float64{float64(i), 1, 2, 3})
	}
	snap := rows
	rows.Truncate(2)
	if rows.Len() != 2 || snap.Len() != 5 {
		t.Fatalf("lengths after truncate: owner %d snapshot %d", rows.Len(), snap.Len())
	}
	rows.Append([]float64{100, 100, 100, 100})
	q := new(Query).Set([]float64{2, 1, 2, 3}) // equals old row 2
	if q.Exceeds(snap, 2, 0.5) {
		t.Error("snapshot row 2 was overwritten by an append after truncate")
	}
	if !q.Exceeds(rows, 2, 0.5) {
		t.Error("owner row 2 is not the re-appended row")
	}
}

func FuzzSketchBound(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// data is the query's float64s then the row's; an even mode puts the
	// bound boundBits%5−2 ulps from the exact distance, an odd one takes
	// boundBits as the bound itself. More seeds in testdata/fuzz.
	f.Add(enc(1, 2, 3, 4, 1.5, 2.5, 3.5, 4.5), uint64(2), uint8(0))
	f.Add(enc(0.5, -0.25, 3, 0.5, -0.25, 3.5), math.Float64bits(0.5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, boundBits uint64, mode uint8) {
		n := len(data) / 16
		if n == 0 || n > 256 {
			return
		}
		q, x := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(n+i):]))
		}
		bound := math.Float64frombits(boundBits)
		if d, _ := series.Euclidean(q, x); mode%2 == 0 {
			// The interesting bounds sit within ulps of the true distance.
			bound = d
			for i := int64(0); i < int64(boundBits%5)-2; i++ {
				bound = math.Nextafter(bound, math.Inf(1))
			}
			for i := int64(boundBits%5) - 2; i < 0; i++ {
				bound = math.Nextafter(bound, 0)
			}
		}
		if bound < 0 {
			return // the k-th best distance is never negative
		}
		checkSound(t, q, x, bound)
	})
}

var sink bool

// BenchmarkSketchExceeds is each sketch kernel next to the float64 one it
// spares: "hot" re-tests one row, "cold" walks a 16 MB sketch (16 384 × 1 024,
// the paper_knn shape) in random order, and the Euclidean pair reads the same
// rows as float64. The bound is beyond any distance, so no kernel abandons
// early — the worst case for all of them.
func BenchmarkSketchExceeds(b *testing.B) {
	const rowsN, n = 16384, 1024
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, rowsN)
	rows := NewRows(n)
	for i := range data {
		data[i] = zscored(rng, n)
		rows.Append(data[i])
	}
	query := zscored(rng, n)
	q := new(Query).Set(query)
	order := rng.Perm(rowsN)
	bound := math.Sqrt(2 * n) // beyond any pair of z-scored rows: no abandon
	ForEachKernel(func(kernel string) {
		b.Run(kernel+"-hot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = q.Exceeds(rows, 0, bound)
			}
		})
		b.Run(kernel+"-cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = q.Exceeds(rows, order[i%rowsN], bound)
			}
		})
	})
	b.Run("euclidean-hot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sink, _ = series.EuclideanEarlyAbandon(query, data[0], bound)
		}
	})
	b.Run("euclidean-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sink, _ = series.EuclideanEarlyAbandon(query, data[order[i%rowsN]], bound)
		}
	})
}
