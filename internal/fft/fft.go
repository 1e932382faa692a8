// Package fft implements the normalized Discrete Fourier Transform the paper
// builds on (§2.1):
//
//	X(k) = 1/√N · Σ_{n=0}^{N-1} x(n)·e^(−j2πkn/N)
//
// The 1/√N normalization makes the transform unitary, so Euclidean distance
// is preserved between the time and frequency domains (Parseval), which is
// what makes the compressed-representation bounds of package spectral exact.
//
// Transforms of power-of-two lengths use an iterative radix-2 Cooley–Tukey
// algorithm; other lengths fall back to Bluestein's chirp-z algorithm, so any
// sequence length is supported in O(N log N).
package fft

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// ErrEmpty is returned when a transform is requested on empty input.
var ErrEmpty = errors.New("fft: empty input")

// Forward computes the normalized DFT of x and returns a freshly allocated
// coefficient vector of the same length.
func Forward(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, false)
	scale(out, 1/math.Sqrt(float64(len(x))))
	return out, nil
}

// Inverse computes the inverse of Forward: Inverse(Forward(x)) == x.
func Inverse(X []complex128) ([]complex128, error) {
	if len(X) == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, len(X))
	copy(out, X)
	transform(out, true)
	scale(out, 1/math.Sqrt(float64(len(X))))
	return out, nil
}

// ForwardReal computes the normalized DFT of a real-valued sequence.
func ForwardReal(x []float64) ([]complex128, error) {
	c := make([]complex128, len(x))
	if err := ForwardRealInto(c, x); err != nil {
		return nil, err
	}
	return c, nil
}

// ForwardRealInto is ForwardReal into caller-owned storage: dst, which must
// have len(x), receives the coefficients. Callers that keep only part of the
// spectrum reuse one dst across transforms.
func ForwardRealInto(dst []complex128, x []float64) error {
	if len(x) == 0 {
		return ErrEmpty
	}
	if len(dst) != len(x) {
		return errors.New("fft: destination length mismatch")
	}
	for i, v := range x {
		dst[i] = complex(v, 0)
	}
	transform(dst, false)
	scale(dst, 1/math.Sqrt(float64(len(x))))
	return nil
}

// InverseReal inverts a spectrum known to come from a real sequence and
// returns the real parts (imaginary residue is numerical noise).
func InverseReal(X []complex128) ([]float64, error) {
	c, err := Inverse(X)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out, nil
}

func scale(x []complex128, s float64) {
	cs := complex(s, 0)
	for i := range x {
		x[i] *= cs
	}
}

// transform runs an unnormalized in-place DFT (inverse flips the twiddle
// sign; the caller applies the unitary scale).
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// twiddles caches, per direction and per log₂(stage size), the stage's
// size/2 twiddle factors w⁰ … w^(size/2−1), w = e^(∓2πi/size). A table depends
// on the stage size alone, so every transform length shares them; each is
// built once, by the serial recurrence w ← w·wStep the butterfly loop used to
// run inline, which keeps every coefficient — and so every transform —
// bit-identical to the uncached one.
var twiddles [2][bits.UintSize]atomic.Pointer[[]complex128]

func stageTwiddles(size int, inverse bool) []complex128 {
	dir, sign := 0, -1.0
	if inverse {
		dir, sign = 1, 1.0
	}
	slot := &twiddles[dir][bits.TrailingZeros(uint(size))]
	if t := slot.Load(); t != nil {
		return *t
	}
	wStep := cmplx.Exp(complex(0, 2*math.Pi/float64(size)*sign))
	t := make([]complex128, size/2)
	w := complex(1, 0)
	for k := range t {
		t[k] = w
		w *= wStep
	}
	// A concurrent builder computed the same values; either table serves.
	slot.CompareAndSwap(nil, &t)
	return *slot.Load()
}

// radix2 is the iterative in-place Cooley–Tukey FFT for power-of-two lengths.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := stageTwiddles(size, inverse)
		for start := 0; start < n; start += size {
			lo, hi := x[start : start+half][:len(tw)], x[start+half : start+size][:len(tw)]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution executed by
// power-of-two FFTs (chirp-z transform).
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). Reduce k² mod 2n to keep the angle
	// argument small for large n (k² overflows float precision fast).
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	inv := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * inv * chirp[k]
	}
}

// Periodogram returns the power spectral density estimate of the spectrum X:
// P(k) = |X(k)|² for k = 0 .. ⌊(N−1)/2⌋ (§2.2). Frequencies above the Nyquist
// limit are redundant for real signals and are not reported.
func Periodogram(X []complex128) []float64 {
	if len(X) == 0 {
		return nil
	}
	half := (len(X)-1)/2 + 1
	p := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(X[k])
		p[k] = m * m
	}
	return p
}

// PeriodogramReal computes the periodogram of a real-valued sequence directly.
func PeriodogramReal(x []float64) ([]float64, error) {
	X, err := ForwardReal(x)
	if err != nil {
		return nil, err
	}
	return Periodogram(X), nil
}

// Magnitudes returns |X(k)| for every coefficient.
func Magnitudes(X []complex128) []float64 {
	out := make([]float64, len(X))
	for i, v := range X {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// Energy returns Σ|X(k)|², which by Parseval equals the time-domain energy of
// the original sequence (the transform is unitary).
func Energy(X []complex128) float64 {
	e := 0.0
	for _, v := range X {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// FrequencyOf returns the normalized frequency (cycles per sample) of
// coefficient k in a length-n transform.
func FrequencyOf(k, n int) float64 {
	return float64(k) / float64(n)
}

// PeriodOf returns the period (in samples) of coefficient k in a length-n
// transform: period = 1/frequency = n/k. It returns +Inf for k = 0 (DC).
func PeriodOf(k, n int) float64 {
	if k == 0 {
		return math.Inf(1)
	}
	return float64(n) / float64(k)
}
