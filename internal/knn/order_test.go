package knn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lifecycle"
)

// arch8LB is the lower-bound distribution of one paper_knn query of archetype
// 8 (series 8 of seed 1's corpus, 16 384 candidates kept), as its 0/64 … 64/64
// quantiles: one candidate at zero — the query itself — then two humps, which
// is what the buckets of Scratch.order have to cope with.
var arch8LB = [65]float64{
	0, 11.3508, 11.7941, 12.0965, 12.3521, 12.6051, 12.8463, 13.0629, 13.3060, 13.5474, 13.8252, 14.0956, 14.4303,
	14.8292, 15.5640, 18.8393, 22.0022, 24.3840, 26.2880, 27.7047, 29.0557, 30.0024, 30.9449, 31.8446, 32.5680, 33.1111,
	33.6176, 34.0232, 34.3725, 34.7374, 35.0117, 35.2884, 35.5380, 35.7631, 35.9874, 36.2097, 36.4043, 36.5972, 36.7596,
	36.9320, 37.0905, 37.2634, 37.4481, 37.6131, 37.8028, 37.9871, 38.1457, 38.3206, 38.4811, 38.6575, 38.8414, 39.0214,
	39.1987, 39.3961, 39.6400, 39.8846, 40.1096, 40.3440, 40.5956, 40.8931, 41.1757, 41.4901, 41.8800, 42.5648, 44.6585,
}

// drawArch8 draws n candidates (ids 0 … n-1 in a random order) whose lower
// bounds follow arch8LB, by inverse transform between its quantiles.
func drawArch8(rng *rand.Rand, n int) []candidate {
	c := make([]candidate, n)
	for i, id := range rng.Perm(n) {
		u := rng.Float64() * 64
		q := min(int(u), 63)
		lb := arch8LB[q] + (u-float64(q))*(arch8LB[q+1]-arch8LB[q])
		c[i] = candidate{id: id, lb: lb, ub: lb + 5}
	}
	return c
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// order puts candidates in exactly the order a stable sort under (lb, id)
// does — whatever the count (the small-n sort, the bucketed path and its
// edges), however the lower bounds tie or spread.
func TestFilterOrderIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cases := map[string]func(i int) float64{
		"recorded":     nil, // drawArch8
		"uniform":      func(int) float64 { return rng.Float64() * 40 },
		"all equal":    func(int) float64 { return 7.25 },
		"two values":   func(i int) float64 { return float64(rng.Intn(2)) * 3 },
		"outlier":      func(i int) float64 { return pick(i == 5, 1e300, rng.Float64()) },
		"zero clamps":  func(int) float64 { return math.Max(0, rng.NormFloat64()) },
		"duplicates":   func(i int) float64 { return float64(i % 7) }, // one series stored many times
		"tiny range":   func(int) float64 { return 1 + float64(rng.Intn(3))*0x1p-52 },
		"denormal":     func(int) float64 { return float64(rng.Intn(5)) * 5e-324 },
		"infinite":     func(i int) float64 { return pick(i%9 == 0, math.Inf(1), rng.Float64()) },
		"huge spread":  func(i int) float64 { return pick(i%2 == 0, math.MaxFloat64, -math.MaxFloat64) },
		"descending":   func(i int) float64 { return float64(-i) },
		"few clusters": func(int) float64 { return float64(rng.Intn(4))*10 + rng.Float64()*1e-9 },
	}
	for name, lbOf := range cases {
		for _, n := range []int{0, 1, 2, sortBelow - 1, sortBelow, sortBelow + 1, 1000, 16384} {
			var c []candidate
			if lbOf == nil {
				c = drawArch8(rng, n)
			} else {
				for i, id := range rng.Perm(n) {
					c = append(c, candidate{id: id, lb: lbOf(i), ub: math.Inf(1)})
				}
			}
			want := slices.Clone(c)
			slices.SortStableFunc(want, byBound)
			s := Get(1)
			got := s.order(c)
			if !slices.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Errorf("%s, n=%d: order differs from the stable (lb, id) sort from position %d", name, n, at)
			}
			s.Release()
		}
	}
}

// What Filter reports does not depend on when a candidate beyond σ_UB is
// dropped: on sight in Add — once k upper bounds are known — or at the end in
// Filter. Collected counts both kinds until Filter has run.
func TestAddDropsWhatFilterWould(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n, k = 500, 3
	s := Get(k)
	defer s.Release()
	type bound struct{ lb, ub float64 }
	var all []bound
	for i := 0; i < n; i++ {
		lb := rng.Float64() * 10
		b := bound{lb, lb + rng.Float64()*3}
		if i%50 == 0 {
			b = bound{math.Inf(1), math.Inf(1)} // an abandoned entry
		}
		all = append(all, b)
		s.Add(i, b.lb, b.ub)
	}
	ubs := make([]float64, n)
	for i, b := range all {
		ubs[i] = b.ub
	}
	slices.Sort(ubs)
	sigma := ubs[k-1]
	wantKept := 0
	for _, b := range all {
		if b.lb <= sigma {
			wantKept++
		}
	}
	if s.SigmaUB() != sigma || s.Collected() != n {
		t.Fatalf("σ_UB %v, collected %d; want %v, %d", s.SigmaUB(), s.Collected(), sigma, n)
	}
	if len(s.cands) == n {
		t.Error("Add kept every candidate: nothing was dropped on sight")
	}
	kept, dropped := s.Filter(lifecycle.NewGate(nil, lifecycle.Limits{}))
	if kept != wantKept || dropped != n-wantKept || s.Collected() != kept {
		t.Errorf("Filter: kept %d dropped %d collected %d; want %d, %d, %d", kept, dropped, s.Collected(), wantKept, n-wantKept, wantKept)
	}
}

// BenchmarkFilterOrder16k guards the candidate ordering of a dense query:
// 16 384 candidates on a recorded archetype-8 lower-bound distribution, which
// slices.SortFunc under the same order takes 2.3 ms over and order 0.4 ms. No
// allocation once the scratch has its buffers.
func BenchmarkFilterOrder16k(b *testing.B) {
	src := drawArch8(rand.New(rand.NewSource(8)), 16384)
	s := Get(10)
	defer s.Release()
	work := make([]candidate, len(src))
	s.spare = s.order(slices.Clone(src)) // warm both buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		if out := s.order(work); &out[0] == &work[0] {
			b.Fatal("order sorted in place: the benchmark expects the bucketed path")
		} else {
			s.spare = out // hand the buffer back: work stays the benchmark's
		}
	}
}
