// Package spectral implements the paper's compressed time-series
// representations and their Euclidean-distance bounds (§3):
//
//   - GEMINI        — first coefficients, symmetric lower bound [Agrawal et
//     al. '93, tightened by Rafiei & Mendelzon '98],
//   - Wang          — first coefficients + approximation error [Wang & Wang '00],
//   - BestMin       — best (largest-magnitude) coefficients + minProperty,
//   - BestError     — best coefficients + approximation error,
//   - BestMinError  — best coefficients + minProperty + error (tightest).
//
// Sequences are real, so their spectra are conjugate-symmetric and only the
// first half of the coefficients is unique. We work on that half-spectrum
// and attach a Parseval weight to every bin (2 for a bin with a conjugate
// mirror, 1 for DC and — when the length is even — the Nyquist bin), which
// makes the weighted frequency-domain distance *exactly* equal to the
// time-domain Euclidean distance. All the bound algebra of §3 goes through
// term-by-term under these weights.
package spectral

import (
	"errors"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/fft"
)

// HalfSpectrum holds the unique coefficients of an orthogonal decomposition
// of a real sequence of length N. For the default DFT basis these are bins
// 0 .. ⌊N/2⌋ of the normalized transform; for the Haar basis (see
// FromValuesHaar) they are all N wavelet coefficients with weight 1.
type HalfSpectrum struct {
	// N is the original time-domain length.
	N int
	// Coeffs[k] is the coefficient at bin k (DFT: k = 0 .. ⌊N/2⌋).
	Coeffs []complex128
	// basis selects the decomposition; the zero value is the DFT.
	basis basis
}

// ErrMismatch is returned when two spectra have different original lengths.
var ErrMismatch = errors.New("spectral: sequence length mismatch")

// FromValues computes the half-spectrum of a real sequence.
func FromValues(x []float64) (*HalfSpectrum, error) {
	h := new(HalfSpectrum)
	if err := FromValuesInto(h, x); err != nil {
		return nil, err
	}
	return h, nil
}

// FromValuesInto is FromValues into caller-owned storage: h is overwritten
// with the half-spectrum of x, reusing its coefficient slice. A scan that
// transforms one row after another keeps a single HalfSpectrum for all.
func FromValuesInto(h *HalfSpectrum, x []float64) error {
	if len(x) == 0 {
		return fft.ErrEmpty
	}
	bins := len(x)/2 + 1
	h.Coeffs = slices.Grow(h.Coeffs[:0], bins)[:bins]
	h.N, h.basis = len(x), basisDFT
	return fft.ForwardRealHalf(h.Coeffs, x)
}

// Bins returns the number of unique bins (⌊N/2⌋+1).
func (h *HalfSpectrum) Bins() int { return len(h.Coeffs) }

// Weight returns the Parseval weight of bin k. For the DFT basis it is 1
// for DC and (even N) the Nyquist bin and 2 for every bin with a distinct
// conjugate mirror; for real orthonormal bases (Haar) every bin weighs 1.
func (h *HalfSpectrum) Weight(k int) float64 {
	if h.basis == basisHaar {
		return 1
	}
	if k == 0 {
		return 1
	}
	if h.N%2 == 0 && k == h.N/2 {
		return 1
	}
	return 2
}

// Power returns the weighted power of bin k: Weight(k)·|X(k)|², i.e. the
// total energy that bin contributes to the full spectrum.
func (h *HalfSpectrum) Power(k int) float64 {
	m := cmplx.Abs(h.Coeffs[k])
	return h.Weight(k) * m * m
}

// Distance returns the exact Euclidean distance between the two underlying
// time-domain sequences, computed in the coefficient domain: the Parseval-
// weighted sum of |A_k − B_k|² = re² + im², taken without rooting each term
// only to square it again, and with the weight applied once per run of equal
// weights (the single-weight ends, then the weight-2 middle) instead of
// looked up per bin. Index construction and insert routing are this loop.
func Distance(a, b *HalfSpectrum) (float64, error) {
	if a.N != b.N || a.basis != b.basis || len(a.Coeffs) != len(b.Coeffs) {
		return 0, ErrMismatch
	}
	ac, bc := a.Coeffs, b.Coeffs
	if len(ac) == 0 {
		return 0, nil
	}
	if a.basis == basisHaar {
		return math.Sqrt(sqDiff(ac, bc)), nil
	}
	// DC weighs 1, as does the Nyquist bin of an even length; every bin in
	// between stands for itself and its conjugate mirror.
	ends, mid := sqDiff(ac[:1], bc[:1]), len(ac)
	if a.N%2 == 0 && mid > 1 {
		mid--
		ends += sqDiff(ac[mid:], bc[mid:])
	}
	return math.Sqrt(ends + 2*sqDiff(ac[1:mid], bc[1:mid])), nil
}

// sqDiff returns Σ |a_k − b_k|² over two equally long coefficient runs.
func sqDiff(a, b []complex128) float64 {
	b = b[:len(a)]
	sum := 0.0
	for k, c := range a {
		re, im := real(c)-real(b[k]), imag(c)-imag(b[k])
		sum += re*re + im*im
	}
	return sum
}

// Mask is a validated bin mask for spectra shaped like the one it was built
// from: each distinct bin once, in order of first appearance, with its
// Parseval weight. It is the §7.5 S2 feature ("it is at the user's
// discretion to use all or some of the best-k periods for similarity
// search, therefore effectively concentrating on just the periods of
// interest"); a scan that measures many spectra under one mask builds it
// once.
type Mask struct {
	n       int
	basis   basis
	bins    []int
	weights []float64
}

// Mask validates and deduplicates bins against h's shape.
func (h *HalfSpectrum) Mask(bins []int) (*Mask, error) {
	m := &Mask{n: h.N, basis: h.basis, bins: make([]int, 0, len(bins)), weights: make([]float64, 0, len(bins))}
	for _, k := range bins {
		if k < 0 || k >= h.Bins() {
			return nil, errors.New("spectral: masked bin out of range")
		}
		if !slices.Contains(m.bins, k) {
			m.bins = append(m.bins, k)
			m.weights = append(m.weights, h.Weight(k))
		}
	}
	return m, nil
}

// Distance returns the Euclidean distance restricted to m's bins:
//
//	sqrt( Σ_{k∈bins} w_k · |A_k − B_k|² )
func (m *Mask) Distance(a, b *HalfSpectrum) (float64, error) {
	if a.N != m.n || b.N != m.n || a.basis != m.basis || b.basis != m.basis {
		return 0, ErrMismatch
	}
	sum := 0.0
	for i, k := range m.bins {
		d := absFast(a.Coeffs[k] - b.Coeffs[k])
		sum += m.weights[i] * d * d
	}
	return math.Sqrt(sum), nil
}

// BinsForPeriods returns the half-spectrum bins whose period (N/k days)
// lies within relTol (relative tolerance, e.g. 0.05 for ±5 %) of any
// requested period. DC is never included, and neither is a period that is
// not positive and finite: an infinite one would be within relTol·∞ of every
// bin.
func (h *HalfSpectrum) BinsForPeriods(periods []float64, relTol float64) []int {
	var out []int
	for k := 1; k < h.Bins(); k++ {
		binPeriod := float64(h.N) / float64(k)
		for _, p := range periods {
			if !(p > 0) || math.IsInf(p, 1) {
				continue
			}
			if math.Abs(binPeriod-p) <= relTol*p {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// FullSpectrum expands the half-spectrum back to the full conjugate-symmetric
// DFT vector of length N.
func (h *HalfSpectrum) FullSpectrum() []complex128 {
	X := make([]complex128, h.N)
	copy(X, h.Coeffs)
	for k := 1; k < len(h.Coeffs); k++ {
		if h.N-k != k {
			X[h.N-k] = cmplx.Conj(h.Coeffs[k])
		}
	}
	return X
}

// Values inverts the decomposition back to the time domain.
func (h *HalfSpectrum) Values() ([]float64, error) {
	if h.basis == basisHaar {
		return haarInverse(h.Coeffs), nil
	}
	return fft.InverseReal(h.FullSpectrum())
}
