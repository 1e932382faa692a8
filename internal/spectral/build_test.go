package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/stats"
)

// The tests and benchmarks that pin index construction's two kernels: the
// selection Compress keeps coefficients by and the spectrum distance the tree
// is built and routed with.

// selectBestSortReference is selectBest as it was before it selected: a full
// sort of the bins whose comparator takes both magnitudes afresh.
func selectBestSortReference(h *HalfSpectrum, k int) ([]int, float64) {
	bins := h.Bins()
	if k > bins {
		k = bins
	}
	order := make([]int, bins)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := cmplx.Abs(h.Coeffs[order[a]]), cmplx.Abs(h.Coeffs[order[b]])
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	sel := append([]int(nil), order[:k]...)
	minPower := cmplx.Abs(h.Coeffs[sel[k-1]])
	sort.Ints(sel)
	return sel, minPower
}

// errSortReference is the omitted energy as compressK summed it: Power, bin
// ascending, over the bins a map says were not kept.
func errSortReference(h *HalfSpectrum, positions []int) float64 {
	kept := make(map[int]bool, len(positions))
	for _, p := range positions {
		kept[p] = true
	}
	e := 0.0
	for b := 0; b < h.Bins(); b++ {
		if !kept[b] {
			e += h.Power(b)
		}
	}
	return e
}

// tieHeavySeries are the inputs whose spectra hold many equal magnitudes.
func tieHeavySeries(rng *rand.Rand) map[string][]float64 {
	n := 256
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3
	}
	padded := make([]float64, n)
	copy(padded, randSeries(rng, n/8))
	grid := make([]float64, n) // int8-grid values: few distinct magnitudes
	for i := range grid {
		grid[i] = float64(rng.Intn(5) - 2)
	}
	impulse := make([]float64, n) // |X_k| equal at every bin
	impulse[0] = 1
	square := make([]float64, n) // every even bin exactly zero
	for i := range square {
		square[i] = float64(1 - 2*(i/(n/2)))
	}
	return map[string][]float64{
		"zero": make([]float64, n), "constant": constant, "padded": padded,
		"grid": grid, "impulse": impulse, "square": square,
		"odd-length": randSeries(rng, 255), "short": {1, -1, 1, 1},
	}
}

func TestSelectBestMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inputs := tieHeavySeries(rng)
	for i := 0; i < 40; i++ {
		inputs[fmt.Sprintf("random-%d", i)] = stats.Standardize(randSeries(rng, 64+rng.Intn(300)))
	}
	g := querylog.New(23)
	inputs["cinema"] = g.Exemplar(querylog.Cinema).Standardized().Values
	for name, x := range inputs {
		spectra := []*HalfSpectrum{mustSpectrum(t, x)}
		if n := len(x); n&(n-1) == 0 {
			haar, err := FromValuesHaar(x)
			if err != nil {
				t.Fatal(err)
			}
			spectra = append(spectra, haar)
		}
		for _, hs := range spectra {
			mags := magnitudes(hs, nil)
			for _, k := range []int{1, 2, 3, 14, hs.Bins() - 1, hs.Bins(), hs.Bins() + 7} {
				if k < 1 {
					continue
				}
				wantPos, wantMin := selectBestSortReference(hs, k)
				gotPos, gotMin := selectBest(mags, k)
				if !slices.Equal(gotPos, wantPos) || gotMin != wantMin {
					t.Fatalf("%s k=%d: selected %v (min %v), the sort keeps %v (min %v)", name, k, gotPos, gotMin, wantPos, wantMin)
				}
				for _, m := range []Method{BestMin, BestError, BestMinError} {
					c, err := compressK(hs, m, k)
					if err != nil {
						t.Fatal(err)
					}
					want := wantPos
					if m.storesMiddle() && hs.basis == basisDFT {
						want = addMiddle(hs, slices.Clone(wantPos))
					}
					if !slices.Equal(c.Positions, want) || c.MinPower != wantMin {
						t.Fatalf("%s %v k=%d: positions %v min %v, want %v min %v", name, m, k, c.Positions, c.MinPower, want, wantMin)
					}
					if m.StoresError() {
						if wantErr := errSortReference(hs, want); c.Err != wantErr {
							t.Fatalf("%s %v k=%d: Err %v, want %v (bitwise)", name, m, k, c.Err, wantErr)
						}
					}
				}
			}
		}
	}
}

// CompressEnergy keeps the prefix of the same total order: on a spectrum of
// equal magnitudes, the lowest bins.
func TestCompressEnergyBreaksTiesByBin(t *testing.T) {
	x := make([]float64, 64)
	x[0] = 1 // |X_k| = 1/8 at every bin
	h := mustSpectrum(t, x)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		c, err := CompressEnergy(h, frac)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range c.Positions {
			if p != i {
				t.Fatalf("fraction %v kept bins %v, want the first %d", frac, c.Positions, len(c.Positions))
			}
		}
		ref, err := compressK(h, BestMinError, len(c.Positions))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.Positions, ref.Positions) || c.MinPower != ref.MinPower || c.Err != ref.Err {
			t.Fatalf("fraction %v: CompressEnergy and Compress disagree at k=%d", frac, len(c.Positions))
		}
	}
}

func TestDistanceIsTimeDomainDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	transforms := map[string]func([]float64) (*HalfSpectrum, error){"dft": FromValues, "haar": FromValuesHaar}
	for _, n := range []int{1, 2, 3, 8, 255, 256, 1023, 1024} {
		for name, transform := range transforms {
			if name == "haar" && n&(n-1) != 0 {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				x, y := stats.Standardize(randSeries(rng, n)), stats.Standardize(randSeries(rng, n))
				hx, err := transform(x)
				if err != nil {
					t.Fatal(err)
				}
				hy, err := transform(y)
				if err != nil {
					t.Fatal(err)
				}
				want, err := series.Euclidean(x, y)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Distance(hx, hy)
				if err != nil {
					t.Fatal(err)
				}
				// Relative to the distance, or — two length-2 rows are equal
				// or opposite — to the rows' own norm √n.
				if tol := 1e-12 * math.Max(want, math.Sqrt(float64(n))); math.Abs(d-want) > tol {
					t.Errorf("%s n=%d: Distance %v, time domain %v (off by %g)", name, n, d, want, math.Abs(d-want))
				}
				if back, _ := Distance(hy, hx); back != d {
					t.Errorf("%s n=%d: not symmetric: %v vs %v", name, n, d, back)
				}
				if self, _ := Distance(hx, hx); self != 0 {
					t.Errorf("%s n=%d: Distance to itself is %v", name, n, self)
				}
			}
		}
	}
	a, b := mustSpectrum(t, make([]float64, 8)), mustSpectrum(t, make([]float64, 16))
	if _, err := Distance(a, b); !errors.Is(err, ErrMismatch) {
		t.Errorf("lengths 8 and 16: %v, want ErrMismatch", err)
	}
	haar, err := FromValuesHaar(make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distance(a, haar); !errors.Is(err, ErrMismatch) {
		t.Errorf("DFT against Haar: %v, want ErrMismatch", err)
	}
}

var sinkFloat float64

// BenchmarkCompress1024 is the served configuration: BestMinError at budget
// 16 keeps 14 of 513 bins.
func BenchmarkCompress1024(b *testing.B) {
	g := querylog.New(30)
	h := mustSpectrum(b, g.Exemplar(querylog.Cinema).Standardized().Values)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Compress(h, BestMinError, 16)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = c.Err
	}
}

// BenchmarkSpectrumDistance1024 measures Distance over spectra that do not
// all sit in cache, as index construction meets them.
func BenchmarkSpectrumDistance1024(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 31)
	var specs []*HalfSpectrum
	for _, s := range g.Dataset(512) {
		specs = append(specs, mustSpectrum(b, s.Standardized().Values))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Distance(specs[i%len(specs)], specs[(i*7+1)%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = d
	}
}
