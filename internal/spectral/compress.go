package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sort"
	"sync"
)

// Method selects which compressed representation (and bound algebra) to use.
// Methods are numbered from 1, as saved trees and feature files record them;
// the zero value is no method.
type Method int

const (
	// GEMINI keeps the first c coefficients plus the middle (Nyquist)
	// coefficient and lower-bounds the distance with the symmetric property
	// (LB-GEMINI). It provides no upper bound.
	GEMINI Method = iota + 1
	// Wang keeps the first c coefficients plus the energy of the omitted
	// ones; bounds follow Wang & Wang '00.
	Wang
	// BestMin keeps the ⌊c/1.125⌋ best coefficients plus the middle
	// coefficient and uses the minProperty (paper fig. 7).
	BestMin
	// BestError keeps the ⌊c/1.125⌋ best coefficients plus the omitted
	// energy (paper fig. 8).
	BestError
	// BestMinError keeps the ⌊c/1.125⌋ best coefficients plus the omitted
	// energy and uses the minProperty as well (paper fig. 9) — the paper's
	// tightest representation.
	BestMinError
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case GEMINI:
		return "GEMINI"
	case Wang:
		return "Wang"
	case BestMin:
		return "BestMin"
	case BestError:
		return "BestError"
	case BestMinError:
		return "BestMinError"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists every representation in presentation order.
func Methods() []Method { return []Method{GEMINI, Wang, BestMin, BestError, BestMinError} }

// UsesBest reports whether the method selects the largest-magnitude
// coefficients (rather than the first ones).
func (m Method) UsesBest() bool { return m == BestMin || m == BestError || m == BestMinError }

// StoresError reports whether the representation records the omitted energy.
func (m Method) StoresError() bool { return m == Wang || m == BestError || m == BestMinError }

// storesMiddle reports whether the representation spends its spare double on
// the middle (Nyquist) coefficient instead of the error (Table 1).
func (m Method) storesMiddle() bool { return m == GEMINI || m == BestMin }

// CoeffBudget returns the number of complex coefficients a method may keep
// under the "2c+1 doubles" memory budget of §7.1: first-coefficient methods
// keep c (positions are implicit); best-coefficient methods must also store
// each position (2 bytes per 16-byte coefficient) and therefore keep
// ⌊c/1.125⌋.
func CoeffBudget(m Method, c int) int {
	if !m.UsesBest() {
		return c
	}
	return int(math.Floor(float64(c) / 1.125))
}

// Compressed is the stored representation of one sequence.
type Compressed struct {
	// Method is the representation/bounds family.
	Method Method
	// N is the original sequence length.
	N int
	// Positions are the kept half-spectrum bins, sorted ascending.
	Positions []int
	// Coeffs[i] is the coefficient at Positions[i].
	Coeffs []complex128
	// MinPower is the magnitude of the smallest *selected* best coefficient
	// (the minProperty radius). Zero for first-coefficient methods.
	MinPower float64
	// Err is the weighted energy Σ w·|T_k|² of the omitted bins; valid only
	// when Method.StoresError() is true.
	Err float64
	// basis records the decomposition the coefficients come from.
	basis basis
}

// ErrBudget is returned when the memory budget admits no coefficients.
var ErrBudget = errors.New("spectral: coefficient budget must be >= 1")

// Compress builds the compressed representation of h for the given method
// under a memory budget of 2·budget+1 doubles (§7.1's "2*(c)+1" accounting).
func Compress(h *HalfSpectrum, m Method, budget int) (*Compressed, error) {
	k := CoeffBudget(m, budget)
	if k < 1 {
		return nil, ErrBudget
	}
	return compressK(h, m, k)
}

// magScratch pools the per-bin magnitude table of one compression; it is
// returned before the compression does, so no Compressed aliases it.
var magScratch = sync.Pool{New: func() any { return new([]float64) }}

// magnitudes fills buf with |X_b| for every bin of h. Everything a
// compression ranks, thresholds or sums reads this one table: the magnitude
// is math.Hypot's, the value Power squares, so MinPower and Err are the bits
// the per-comparison recomputation used to produce.
func magnitudes(h *HalfSpectrum, buf []float64) []float64 {
	mags := slices.Grow(buf[:0], len(h.Coeffs))[:len(h.Coeffs)]
	for b, c := range h.Coeffs {
		mags[b] = cmplx.Abs(c)
	}
	return mags
}

// compressK keeps exactly k coefficients (first or best per the method).
func compressK(h *HalfSpectrum, m Method, k int) (*Compressed, error) {
	mp := magScratch.Get().(*[]float64)
	defer magScratch.Put(mp)
	*mp = magnitudes(h, *mp)
	return compressMags(h, *mp, m, k), nil
}

// compressMags is compressK over h's magnitude table.
func compressMags(h *HalfSpectrum, mags []float64, m Method, k int) *Compressed {
	bins := h.Bins()
	var positions []int
	minPower := 0.0
	if m.UsesBest() {
		positions, minPower = selectBest(mags, k)
	} else {
		// "First" coefficients start at bin 1: the data is standardized so
		// DC carries no information, matching the symmetric-property setup
		// of Rafiei & Mendelzon.
		if k > bins-1 {
			k = bins - 1
		}
		if k < 1 {
			k = 1
		}
		positions = make([]int, 0, k)
		for b := 1; b <= k && b < bins; b++ {
			positions = append(positions, b)
		}
	}
	if m.storesMiddle() && h.basis == basisDFT {
		positions = addMiddle(h, positions)
	}
	c := &Compressed{Method: m, N: h.N, Positions: positions, MinPower: minPower, basis: h.basis}
	c.Coeffs = make([]complex128, len(positions))
	for i, p := range positions {
		c.Coeffs[i] = h.Coeffs[p]
	}
	if m.StoresError() {
		// The omitted bins in ascending order: positions is sorted, so one
		// cursor walks it beside b.
		pi := 0
		for b := 0; b < bins; b++ {
			if pi < len(positions) && positions[pi] == b {
				pi++
				continue
			}
			c.Err += h.Weight(b) * mags[b] * mags[b]
		}
	}
	return c
}

// ranksBefore is the order best-coefficient selection keeps bins in:
// magnitude descending, ties by bin ascending. It is total, so which bins
// are the k best — equal magnitudes are routine: the zero bins of constant or
// padded series, values on an integer grid — depends on no algorithm's path.
func ranksBefore(mags []float64, a, b int) bool {
	if mags[a] != mags[b] {
		return mags[a] > mags[b]
	}
	return a < b
}

// selectBest returns the k bins that rank first under ranksBefore (any bin,
// DC included — for standardized data DC is zero and never wins) sorted by
// position, plus the magnitude of the last of them. It selects rather than
// sorts: a heap of the k best so far with the worst at its root, which a bin
// that does not beat the root — nearly all of them, for k ≪ bins — costs one
// comparison.
func selectBest(mags []float64, k int) ([]int, float64) {
	if k > len(mags) {
		k = len(mags)
	}
	sel := make([]int, k)
	for i := range sel {
		sel[i] = i
	}
	// sink restores the heap below slot i.
	sink := func(i int) {
		for {
			worst := i
			if l := 2*i + 1; l < k && ranksBefore(mags, sel[worst], sel[l]) {
				worst = l
			}
			if r := 2*i + 2; r < k && ranksBefore(mags, sel[worst], sel[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			sel[i], sel[worst] = sel[worst], sel[i]
			i = worst
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		sink(i)
	}
	for b := k; b < len(mags); b++ {
		if ranksBefore(mags, b, sel[0]) {
			sel[0] = b
			sink(0)
		}
	}
	minPower := mags[sel[0]]
	sort.Ints(sel)
	return sel, minPower
}

// addMiddle appends the middle (Nyquist) bin if the length is even and the
// bin is not already kept. If it is already kept the representation simply
// uses one less double (§7.1).
func addMiddle(h *HalfSpectrum, positions []int) []int {
	if h.N%2 != 0 {
		return positions
	}
	mid := h.N / 2
	for _, p := range positions {
		if p == mid {
			return positions
		}
	}
	positions = append(positions, mid)
	sort.Ints(positions)
	return positions
}

// CompressEnergy implements the paper's §8 extension: keep the best
// coefficients until they capture at least the given fraction of the signal
// energy (0 < fraction ≤ 1). The result uses BestMinError bounds. "Best" is
// the order Compress selects under (ranksBefore: magnitude descending, equal
// magnitudes by bin ascending), so the kept set is a function of the spectrum
// alone.
func CompressEnergy(h *HalfSpectrum, fraction float64) (*Compressed, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, errors.New("spectral: energy fraction must be in (0,1]")
	}
	mp := magScratch.Get().(*[]float64)
	defer magScratch.Put(mp)
	*mp = magnitudes(h, *mp)
	mags := *mp
	power := func(b int) float64 { return h.Weight(b) * mags[b] * mags[b] }
	total := 0.0
	for b := range mags {
		total += power(b)
	}
	if total == 0 {
		return compressMags(h, mags, BestMinError, 1), nil
	}
	order := make([]int, len(mags))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if ranksBefore(mags, a, b) {
			return -1
		}
		if ranksBefore(mags, b, a) {
			return 1
		}
		return 0
	})
	captured := 0.0
	k := 0
	for k < len(order) && captured < fraction*total {
		captured += power(order[k])
		k++
	}
	if k < 1 {
		k = 1
	}
	return compressMags(h, mags, BestMinError, k), nil
}

// MemoryDoubles returns the number of 8-byte doubles this representation
// occupies under the §7.1 accounting: 2 doubles per coefficient, plus 0.25
// doubles per stored position for best-coefficient methods, plus 1 double
// for the error (the middle coefficient, being real, costs 1 double and is
// already included in its coefficient count at 2 — we charge it at 1 like
// the paper does).
func (t *Compressed) MemoryDoubles() float64 {
	mem := 0.0
	for _, p := range t.Positions {
		if t.N%2 == 0 && p == t.N/2 {
			mem++ // middle coefficient is real: one double
			continue
		}
		mem += 2
		if t.Method.UsesBest() {
			mem += 0.25 // 2-byte stored position
		}
	}
	if t.Method.StoresError() {
		mem++
	}
	return mem
}

// Reconstruct inverts the compressed representation to the time domain,
// zero-filling omitted bins — the reconstruction whose error fig. 5 reports.
func (t *Compressed) Reconstruct() ([]float64, error) {
	bins := t.N/2 + 1
	if t.basis == basisHaar {
		bins = t.N
	}
	h := &HalfSpectrum{N: t.N, Coeffs: make([]complex128, bins), basis: t.basis}
	for i, p := range t.Positions {
		h.Coeffs[p] = t.Coeffs[i]
	}
	return h.Values()
}

// ReconstructionError returns the Euclidean distance between x and the
// reconstruction from this representation. By Parseval it equals the square
// root of the omitted weighted energy.
func (t *Compressed) ReconstructionError(x []float64) (float64, error) {
	rec, err := t.Reconstruct()
	if err != nil {
		return 0, err
	}
	if len(rec) != len(x) {
		return 0, ErrMismatch
	}
	sum := 0.0
	for i := range x {
		d := x[i] - rec[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}
