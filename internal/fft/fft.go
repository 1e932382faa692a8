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
// sequence length is supported in O(N log N). A real sequence of even length
// is transformed as a complex one of half its length (ForwardRealHalf).
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

var errDstLength = errors.New("fft: destination length mismatch")

// inverseComplex computes the inverse of the normalized DFT.
func inverseComplex(X []complex128) ([]complex128, error) {
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
	if err := forwardRealInto(c, x); err != nil {
		return nil, err
	}
	return c, nil
}

// forwardRealInto is ForwardReal into caller-owned storage: dst, which must
// have len(x), receives the coefficients — ForwardRealHalf's bins and their
// conjugate mirror, X(N−k) = conj(X(k)).
func forwardRealInto(dst []complex128, x []float64) error {
	n := len(x)
	if n == 0 {
		return ErrEmpty
	}
	if len(dst) != n {
		return errDstLength
	}
	if err := ForwardRealHalf(dst[:n/2+1], x); err != nil {
		return err
	}
	for k := 1; k < n-k; k++ {
		dst[n-k] = cmplx.Conj(dst[k])
	}
	return nil
}

// ForwardRealHalf computes bins 0 … ⌊N/2⌋ of the normalized DFT of a real
// sequence of length N into dst, which must have ⌊N/2⌋+1 elements; the bins
// above are their conjugate mirror. It is the one real-input transform.
//
// An even length is transformed at half its size: the samples are packed in
// pairs as z(n) = x(2n) + i·x(2n+1), one complex transform of length N/2 runs
// in dst itself, and a single pass separates the even- and odd-sample spectra
// E and O it holds and recombines them, X(k) = E(k) + W_N^k·O(k). An odd
// length has no such packing and is transformed as complex input.
func ForwardRealHalf(dst []complex128, x []float64) error {
	n := len(x)
	if n == 0 {
		return ErrEmpty
	}
	if len(dst) != n/2+1 {
		return errDstLength
	}
	if n%2 == 1 {
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		transform(full, false)
		copy(dst, full)
		scale(dst, 1/math.Sqrt(float64(n)))
		return nil
	}
	z := dst[:n/2]
	if m := len(z); m&(m-1) == 0 {
		packFirstStages(z, x)
		stages(z, 8, false)
	} else {
		for i := range z {
			z[i] = complex(x[2*i], x[2*i+1])
		}
		bluestein(z, false)
	}
	splitReal(dst, n)
	return nil
}

// packFirstStages writes the packed pairs z(n) = x(2n) + i·x(2n+1) into z in
// bit-reversed order and runs the first two radix-2 stages on them, whose
// twiddle factors (1, then 1 and −i) need no multiply. Output positions
// 4j … 4j+3 hold inputs r, r+M/2, r+M/4 and r+3M/4 with j the bit reversal
// of r over M/4 (and r that of j: the permutation is its own inverse), so
// one cached table serves and x is read front to back, in four streams.
func packFirstStages(z []complex128, x []float64) {
	m := len(z)
	at := func(i int) complex128 { return complex(x[2*i], x[2*i+1]) }
	switch m {
	case 1:
		z[0] = at(0)
		return
	case 2:
		a0, a1 := at(0), at(1)
		z[0], z[1] = a0+a1, a0-a1
		return
	}
	h, q := m/2, m/4
	for r, j := range bitReversal(q) {
		a0, a1, a2, a3 := at(r), at(r+h), at(r+q), at(r+h+q)
		b0, b1, b2, b3 := a0+a1, a0-a1, a2+a3, a2-a3
		t := complex(imag(b3), -real(b3)) // −i·b3
		o := z[4*j : 4*j+4 : 4*j+4]
		o[0], o[1], o[2], o[3] = b0+b2, b1+t, b0-b2, b1-t
	}
}

// splitReal turns the length-N/2 transform Z of the packed pairs, held in
// dst[:N/2], into bins 0 … N/2 of the real sequence's normalized transform.
// With E(k) = (Z(k) + conj Z(M−k))/2 and O(k) = (Z(k) − conj Z(M−k))/2i
// (M = N/2, Z(M) = Z(0)), X(k) = E(k) + W^k·O(k) and X(M−k) = conj(E(k) −
// W^k·O(k)), W = e^(−2πi/N); the pair (k, M−k) is read and written in place,
// and the unitary 1/√N rides along.
func splitReal(dst []complex128, n int) {
	m := n / 2
	s := 1 / math.Sqrt(float64(n))
	z0 := dst[0]
	dst[0] = complex((real(z0)+imag(z0))*s, 0)
	dst[m] = complex((real(z0)-imag(z0))*s, 0)
	if m%2 == 0 && m > 0 {
		// k = M/2 is its own partner, and W^(M/2) = −i: X = conj Z.
		c := dst[m/2]
		dst[m/2] = complex(real(c)*s, -imag(c)*s)
	}
	w := splitTwiddles(n)
	h := s / 2
	for k := 1; k < m-k; k++ {
		a, b := dst[k], dst[m-k]
		er, ei := real(a)+real(b), imag(a)-imag(b) // 2·E(k)
		or, oi := imag(a)+imag(b), real(b)-real(a) // 2·O(k)
		wr, wi := real(w[k]), imag(w[k])
		tr, ti := wr*or-wi*oi, wr*oi+wi*or // 2·W^k·O(k)
		dst[k] = complex((er+tr)*h, (ei+ti)*h)
		dst[m-k] = complex((er-tr)*h, (ti-ei)*h)
	}
}

// splitTwiddles returns W^k = e^(−2πik/n) for k < n/2: the cached stage table
// of size n when n is a power of two, a fresh table otherwise (whose
// half-length transform is a Bluestein one, allocating anyway).
func splitTwiddles(n int) []complex128 {
	if n&(n-1) == 0 {
		return stageTwiddles(n, false)
	}
	w := make([]complex128, n/2)
	for k := range w {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(cos, sin)
	}
	return w
}

// InverseReal inverts a spectrum known to come from a real sequence and
// returns the real parts (imaginary residue is numerical noise).
func InverseReal(X []complex128) ([]float64, error) {
	c, err := inverseComplex(X)
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
	for i, v := range x {
		x[i] = complex(real(v)*s, imag(v)*s)
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

// reversals caches, per log₂ n, the bit-reversal permutation of 0 … n−1.
var reversals [bits.UintSize]atomic.Pointer[[]int32]

func bitReversal(n int) []int32 {
	lg := bits.TrailingZeros(uint(n))
	slot := &reversals[lg]
	if t := slot.Load(); t != nil {
		return *t
	}
	t := make([]int32, n)
	for i := range t {
		t[i] = int32(bits.Reverse64(uint64(i)) >> (64 - uint(lg)))
	}
	slot.CompareAndSwap(nil, &t)
	return *slot.Load()
}

// radix2 is the iterative in-place Cooley–Tukey FFT for power-of-two lengths.
func radix2(x []complex128, inverse bool) {
	for i, j := range bitReversal(len(x)) {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	stages(x, 2, inverse)
}

// stages runs the radix-2 butterfly stages of sizes first, 2·first, … len(x)
// over bit-reversed input whose smaller stages are done. Stages go two to a
// pass over the data: the pass over a block of 2·size runs stage size on its
// quarters (a, b) and (c, d), then stage 2·size on (a, c) and (b, d), with
// every butterfly computed as the one-stage loop computes it — the same
// twiddle, the same operations — so fusing changes no bit of the result.
func stages(x []complex128, first int, inverse bool) {
	n := len(x)
	size := first
	for ; 2*size <= n; size <<= 2 {
		t1 := stageTwiddles(size, inverse)
		t2 := stageTwiddles(2*size, inverse)
		q := len(t1)
		tac, tbd := t2[:q], t2[q:][:q]
		for start := 0; start < n; start += 2 * size {
			a, b := x[start:][:q], x[start+q:][:q]
			c, d := x[start+2*q:][:q], x[start+3*q:][:q]
			for k, w := range t1 {
				bw, dw := b[k]*w, d[k]*w
				a1, b1 := a[k]+bw, a[k]-bw
				c1, d1 := c[k]+dw, c[k]-dw
				cw, dw2 := c1*tac[k], d1*tbd[k]
				a[k], c[k] = a1+cw, a1-cw
				b[k], d[k] = b1+dw2, b1-dw2
			}
		}
	}
	if size == n {
		half := size >> 1
		tw := stageTwiddles(size, inverse)
		lo, hi := x[:half][:len(tw)], x[half:size][:len(tw)]
		for k, w := range tw {
			a := lo[k]
			b := hi[k] * w
			lo[k] = a + b
			hi[k] = a - b
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

// PeriodogramReal computes the periodogram of a real-valued sequence directly
// from its half spectrum.
func PeriodogramReal(x []float64) ([]float64, error) {
	h := make([]complex128, len(x)/2+1)
	if err := ForwardRealHalf(h, x); err != nil {
		return nil, err
	}
	return power(h[:(len(x)-1)/2+1]), nil
}

// power returns |X(k)|² for every coefficient.
func power(X []complex128) []float64 {
	p := make([]float64, len(X))
	for k, c := range X {
		m := cmplx.Abs(c)
		p[k] = m * m
	}
	return p
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
