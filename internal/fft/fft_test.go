package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/israce"
)

// Forward is the normalized DFT of a complex x into a fresh vector: the
// complex transform the real-input paths are checked against.
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

// Energy returns Σ|X(k)|².
func Energy(X []complex128) float64 {
	e := 0.0
	for _, v := range X {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// naiveDFT is the O(N²) reference implementation of the normalized DFT.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum * complex(1/math.Sqrt(float64(n)), 0)
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Mix of power-of-two and awkward lengths (exercises Bluestein).
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 100, 128, 255, 257} {
		x := randComplex(rng, n)
		got, err := Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x, false)
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d: Forward differs from naive DFT by %g", n, d)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 6, 8, 17, 64} {
		x := randComplex(rng, n)
		got, err := inverseComplex(x)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x, true)
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d: Inverse differs from naive inverse DFT by %g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 5, 8, 33, 128, 1000, 1024} {
		x := randComplex(rng, n)
		X, err := Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := inverseComplex(X)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(x, back); d > 1e-9 {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := Forward(nil); err != ErrEmpty {
		t.Error("Forward(nil) should fail with ErrEmpty")
	}
	if _, err := inverseComplex(nil); err != ErrEmpty {
		t.Error("inverseComplex(nil) should fail with ErrEmpty")
	}
	if _, err := ForwardReal(nil); err != ErrEmpty {
		t.Error("ForwardReal(nil) should fail with ErrEmpty")
	}
	if _, err := PeriodogramReal(nil); err == nil {
		t.Error("PeriodogramReal(nil) should fail")
	}
}

func TestForwardDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	if _, err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("Forward mutated its input")
		}
	}
}

// Property: Parseval — the unitary transform preserves energy, for any length.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 1 + int(nRaw)%512
		rng := rand.New(rand.NewSource(seed))
		x := randComplex(rng, n)
		X, err := Forward(x)
		if err != nil {
			return false
		}
		return math.Abs(Energy(x)-Energy(X)) < 1e-6*(1+Energy(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: linearity — DFT(a·x + y) = a·DFT(x) + DFT(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		X, _ := Forward(x)
		Y, _ := Forward(y)
		S, _ := Forward(sum)
		for i := range S {
			if cmplx.Abs(S[i]-(a*X[i]+Y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Real input ⇒ conjugate-symmetric spectrum: X(N−k) == conj(X(k)).
func TestRealInputSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{8, 15, 64, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		X, err := ForwardReal(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(X[n-k]-cmplx.Conj(X[k])) > 1e-9 {
				t.Errorf("n=%d k=%d: symmetry violated", n, k)
			}
		}
		if math.Abs(imag(X[0])) > 1e-12 {
			t.Errorf("n=%d: DC coefficient should be real", n)
		}
	}
}

func TestPureSinusoidPeaksAtItsFrequency(t *testing.T) {
	// A sinusoid with exactly 8 cycles over 128 samples must put all its
	// periodogram power at bin 8.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	p, err := PeriodogramReal(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range p {
		if k == 8 {
			if p[k] < 1 {
				t.Errorf("bin 8 power %v too small", p[k])
			}
			continue
		}
		if p[k] > 1e-12 {
			t.Errorf("leakage at bin %d: %v", k, p[k])
		}
	}
	// Its period should be n/8 = 16 samples.
	if got := PeriodOf(8, n); got != 16 {
		t.Errorf("PeriodOf(8,128) = %v, want 16", got)
	}
}

func TestPeriodogramLength(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 1024} {
		p, err := PeriodogramReal(make([]float64, n))
		if err != nil {
			t.Fatal(err)
		}
		want := (n-1)/2 + 1
		if len(p) != want {
			t.Errorf("n=%d: periodogram length %d, want %d", n, len(p), want)
		}
	}
}

func TestFrequencyAndPeriodHelpers(t *testing.T) {
	if FrequencyOf(7, 1024) != 7.0/1024 {
		t.Error("FrequencyOf wrong")
	}
	if !math.IsInf(PeriodOf(0, 100), 1) {
		t.Error("PeriodOf(0) should be +Inf")
	}
	// Weekly period in a 364-day series sits at bin 52.
	if PeriodOf(52, 364) != 7 {
		t.Error("weekly bin mapping wrong")
	}
}

// The periodogram's power is the squared magnitude of each coefficient.
func TestMagnitudes(t *testing.T) {
	X := []complex128{3 + 4i, 1i, -2}
	p := power(X)
	want := []float64{5, 1, 2}
	for i := range want {
		if math.Abs(math.Sqrt(p[i])-want[i]) > 1e-12 {
			t.Errorf("|X(%d)| = %v, want %v", i, math.Sqrt(p[i]), want[i])
		}
	}
}

func TestInverseReal(t *testing.T) {
	x := []float64{1, 5, -2, 4, 0, 0, 3, 3}
	X, err := ForwardReal(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InverseReal(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Errorf("roundtrip[%d] = %v, want %v", i, back[i], x[i])
		}
	}
}

func TestPaperExampleMagnitudeVector(t *testing.T) {
	// §3.2 example: T = {(1+2i),(2+2i),(1+i),(5+i)} has
	// abs(T) = {2.23, 2.82, 1.41, 5.09}; the periodogram holds their squares.
	T := []complex128{1 + 2i, 2 + 2i, 1 + 1i, 5 + 1i}
	p := power(T)
	want := []float64{5, 8, 2, 26}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Errorf("|T(%d)|² = %v, want %v", i, p[i], want[i])
		}
	}
}

// radix2Inline is radix2 before the twiddle tables: every block of every
// stage re-runs the recurrence w ← w·wStep. The cached transform must match
// it bit for bit.
func radix2Inline(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

func TestCachedTwiddlesAreBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 4096; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := randComplex(rng, n)
			x[rng.Intn(n)] = complex(math.Inf(1), math.Copysign(0, -1))
			want := append([]complex128(nil), x...)
			radix2Inline(want, inverse)
			// Twice: the first call may build tables, the second reads them.
			for pass := 0; pass < 2; pass++ {
				got := append([]complex128(nil), x...)
				radix2(got, inverse)
				for i := range got {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("n=%d inverse=%v pass %d bin %d: %v, inline recurrence %v", n, inverse, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The tables are built on first use by whichever transforms get there
// first; concurrent first users must all see complete tables — twiddles and
// the bit-reversal permutation alike.
func TestTwiddleTablesUnderConcurrentFirstUse(t *testing.T) {
	const n = 1 << 15 // a size no other test in this package reaches
	rng := rand.New(rand.NewSource(22))
	x := randComplex(rng, n)
	want := append([]complex128(nil), x...)
	radix2Inline(want, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := append([]complex128(nil), x...)
			radix2(got, false)
			if maxDiff(got, want) != 0 {
				t.Error("concurrent first transform differs from the inline recurrence")
			}
		}()
	}
	wg.Wait()
}

// naiveHalfDFT is the O(N²) normalized DFT of a real sequence, bins 0 … ⌊N/2⌋,
// with every angle 2πj/N taken from one exact table instead of a recurrence.
func naiveHalfDFT(x []float64) []complex128 {
	n := len(x)
	cos, sin := make([]float64, n), make([]float64, n)
	for j := range cos {
		sin[j], cos[j] = math.Sincos(2 * math.Pi * float64(j) / float64(n))
	}
	out := make([]complex128, n/2+1)
	s := 1 / math.Sqrt(float64(n))
	for k := range out {
		var re, im float64
		j := 0 // k·t mod n
		for _, v := range x {
			re += v * cos[j]
			im -= v * sin[j]
			if j += k; j >= n {
				j -= n
			}
		}
		out[k] = complex(re*s, im*s)
	}
	return out
}

// realInputs are the inputs the real transform is checked on: random, and
// the ones whose spectra are all ties — zero, constant, an impulse, and ±1
// alternating, whose energy sits entirely in the Nyquist bin at even N.
func realInputs(rng *rand.Rand, n int) map[string][]float64 {
	in := map[string][]float64{}
	for _, name := range []string{"random", "zero", "constant", "impulse", "alternating"} {
		in[name] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		in["random"][i] = rng.NormFloat64()
		in["constant"][i] = 3.5
		in["alternating"][i] = float64(1 - 2*(i%2))
	}
	in["impulse"][rng.Intn(n)] = -2
	return in
}

func TestForwardRealHalfMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sizes []int
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	largest := 1 << 14
	if israce.Enabled {
		largest = 1 << 12 // the O(N²) reference is most of the test's time
	}
	for n := 256; n <= largest; n <<= 1 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1000, 1023, 1025)
	for _, n := range sizes {
		for name, x := range realInputs(rng, n) {
			half := make([]complex128, n/2+1)
			if err := ForwardRealHalf(half, x); err != nil {
				t.Fatal(err)
			}
			energy := 0.0
			for _, v := range x {
				energy += v * v
			}
			if d := maxDiff(half, naiveHalfDFT(x)); d > 1e-9*(1+math.Sqrt(energy)) {
				t.Errorf("n=%d %s: half spectrum differs from the naive DFT by %g", n, name, d)
			}
			// Parseval over the half spectrum: the bins with a mirror count twice.
			e := 0.0
			for k, c := range half {
				w := 2.0
				if k == 0 || 2*k == n {
					w = 1
				}
				e += w * (real(c)*real(c) + imag(c)*imag(c))
			}
			if math.Abs(e-energy) > 1e-9*(1+energy) {
				t.Errorf("n=%d %s: spectrum energy %v, series energy %v", n, name, e, energy)
			}
			full, err := ForwardReal(x)
			if err != nil {
				t.Fatal(err)
			}
			for k := range full {
				want := half[k%len(half)]
				if k >= len(half) {
					want = cmplx.Conj(half[n-k])
				}
				if full[k] != want {
					t.Fatalf("n=%d %s bin %d: ForwardReal %v, want %v (the half spectrum or its exact mirror)", n, name, k, full[k], want)
				}
			}
		}
	}
	if err := ForwardRealHalf(make([]complex128, 4), make([]float64, 8)); err == nil {
		t.Error("ForwardRealHalf accepted a destination of the wrong length")
	}
	if err := ForwardRealHalf(make([]complex128, 1), nil); err != ErrEmpty {
		t.Errorf("ForwardRealHalf(nil) = %v, want ErrEmpty", err)
	}
}

// FuzzForwardReal holds the real transform to the complex one over the same
// samples: the same spectrum within rounding, for any length and any values
// a 16-bit sample can take.
func FuzzForwardReal(f *testing.F) {
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 0, 255, 255, 1, 0, 255, 255})
	f.Add([]byte{0, 128, 255, 127, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(make([]byte, 2048))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, 4096)
		if n == 0 {
			return
		}
		x := make([]float64, n)
		c := make([]complex128, n)
		energy := 0.0
		for i := range x {
			x[i] = float64(int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8))
			c[i] = complex(x[i], 0)
			energy += x[i] * x[i]
		}
		got, err := ForwardReal(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Forward(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, want); d > 1e-12*(1+math.Sqrt(energy))*math.Log2(float64(2*n)) {
			t.Fatalf("n=%d: ForwardReal differs from Forward by %g", n, d)
		}
	})
}

func BenchmarkForwardReal1024(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardReal(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardBluestein1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randComplex(rng, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeriodogram1024(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PeriodogramReal(x); err != nil {
			b.Fatal(err)
		}
	}
}
