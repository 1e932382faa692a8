package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/stats"
)

// MaskedDistance is Mask.Distance with the mask built for one pair.
// Duplicate bins are counted once; out-of-range bins are an error.
func MaskedDistance(a, b *HalfSpectrum, bins []int) (float64, error) {
	if a.N != b.N || a.basis != b.basis {
		return 0, ErrMismatch
	}
	m, err := a.Mask(bins)
	if err != nil {
		return 0, err
	}
	return m.Distance(a, b)
}

// Energy returns the total weighted energy, which by Parseval equals the
// time-domain energy of the original sequence.
func (h *HalfSpectrum) Energy() float64 {
	e := 0.0
	for k := range h.Coeffs {
		e += h.Power(k)
	}
	return e
}

// sumSquares is Σ x_i², the time-domain energy.
func sumSquares(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func mustSpectrum(t testing.TB, x []float64) *HalfSpectrum {
	t.Helper()
	h, err := FromValues(x)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestWeights(t *testing.T) {
	even := &HalfSpectrum{N: 8, Coeffs: make([]complex128, 5)}
	if even.Weight(0) != 1 || even.Weight(4) != 1 || even.Weight(1) != 2 || even.Weight(3) != 2 {
		t.Error("even-length weights wrong")
	}
	odd := &HalfSpectrum{N: 7, Coeffs: make([]complex128, 4)}
	if odd.Weight(0) != 1 || odd.Weight(3) != 2 {
		t.Error("odd-length weights wrong")
	}
}

// Property: frequency-domain weighted distance equals time-domain Euclidean.
func TestDistanceEqualsTimeDomain(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 2 + int(nRaw)%200
		rng := rand.New(rand.NewSource(seed))
		x, y := randSeries(rng, n), randSeries(rng, n)
		hx := mustSpectrum(t, x)
		hy := mustSpectrum(t, y)
		dFreq, err := Distance(hx, hy)
		if err != nil {
			return false
		}
		dTime, _ := series.Euclidean(x, y)
		return math.Abs(dFreq-dTime) < 1e-7*(1+dTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDistanceLengthMismatch(t *testing.T) {
	a := mustSpectrum(t, make([]float64, 8))
	b := mustSpectrum(t, make([]float64, 16))
	if _, err := Distance(a, b); err != ErrMismatch {
		t.Error("expected ErrMismatch")
	}
}

func TestHalfSpectrumRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 8, 9, 17, 64, 101} {
		x := randSeries(rng, n)
		h := mustSpectrum(t, x)
		back, err := h.Values()
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip error at %d: %v vs %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestEnergyParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{4, 9, 128} {
		x := randSeries(rng, n)
		h := mustSpectrum(t, x)
		if math.Abs(h.Energy()-sumSquares(x)) > 1e-7 {
			t.Errorf("n=%d: spectrum energy %v != time energy %v", n, h.Energy(), sumSquares(x))
		}
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		GEMINI: "GEMINI", Wang: "Wang", BestMin: "BestMin",
		BestError: "BestError", BestMinError: "BestMinError",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%v.String() = %q", int(m), m.String())
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Error("unknown method String wrong")
	}
	if len(Methods()) != 5 {
		t.Error("Methods() should list 5 methods")
	}
}

func TestCoeffBudget(t *testing.T) {
	// Paper §7.1: budget c=32 gives best-coefficient methods 28 coefficients.
	if got := CoeffBudget(BestMinError, 32); got != 28 {
		t.Errorf("CoeffBudget(best,32) = %d, want 28", got)
	}
	if got := CoeffBudget(GEMINI, 32); got != 32 {
		t.Errorf("CoeffBudget(GEMINI,32) = %d, want 32", got)
	}
	if got := CoeffBudget(BestMin, 8); got != 7 {
		t.Errorf("CoeffBudget(best,8) = %d, want 7", got)
	}
}

func TestCompressBudgetError(t *testing.T) {
	h := mustSpectrum(t, randSeries(rand.New(rand.NewSource(1)), 64))
	if _, err := Compress(h, BestMinError, 0); err != ErrBudget {
		t.Error("expected ErrBudget")
	}
}

func TestCompressedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := stats.Standardize(randSeries(rng, 128))
	h := mustSpectrum(t, x)
	for _, m := range Methods() {
		c, err := Compress(h, m, 8)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(c.Positions) != len(c.Coeffs) {
			t.Fatalf("%v: positions/coeffs mismatch", m)
		}
		for i := 1; i < len(c.Positions); i++ {
			if c.Positions[i] <= c.Positions[i-1] {
				t.Fatalf("%v: positions not strictly sorted: %v", m, c.Positions)
			}
		}
		if m.StoresError() && c.Err < 0 {
			t.Fatalf("%v: negative error", m)
		}
		if m.storesMiddle() {
			found := false
			for _, p := range c.Positions {
				if p == h.N/2 {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: middle coefficient not stored", m)
			}
		}
		// Stored coefficients must match the spectrum exactly.
		for i, p := range c.Positions {
			if c.Coeffs[i] != h.Coeffs[p] {
				t.Fatalf("%v: stored coefficient differs at bin %d", m, p)
			}
		}
	}
}

func TestMinPropertyHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := stats.Standardize(randSeries(rng, 256))
	h := mustSpectrum(t, x)
	c, err := Compress(h, BestMinError, 16)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[int]bool{}
	for _, p := range c.Positions {
		kept[p] = true
	}
	for b := 0; b < h.Bins(); b++ {
		if !kept[b] && cmplx.Abs(h.Coeffs[b]) > c.MinPower+1e-12 {
			t.Errorf("omitted bin %d magnitude %v exceeds minPower %v",
				b, cmplx.Abs(h.Coeffs[b]), c.MinPower)
		}
	}
}

func TestMemoryDoublesWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := stats.Standardize(randSeries(rng, 2048))
	h := mustSpectrum(t, x)
	for _, budget := range []int{8, 16, 32} {
		limit := float64(2*budget + 1)
		for _, m := range Methods() {
			c, err := Compress(h, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.MemoryDoubles(); got > limit+1e-9 {
				t.Errorf("%v budget %d: %v doubles > limit %v", m, budget, got, limit)
			}
		}
	}
}

func TestReconstructionErrorEqualsOmittedEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := stats.Standardize(randSeries(rng, 128))
	h := mustSpectrum(t, x)
	c, err := Compress(h, BestMinError, 10)
	if err != nil {
		t.Fatal(err)
	}
	re, err := c.ReconstructionError(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re-math.Sqrt(c.Err)) > 1e-8 {
		t.Errorf("reconstruction error %v != sqrt(omitted energy) %v", re, math.Sqrt(c.Err))
	}
}

// Fig. 5's claim: for periodic data the best coefficients reconstruct better
// than the same-memory first coefficients.
func TestBestBeatsFirstOnPeriodicData(t *testing.T) {
	g := querylog.New(20)
	for _, name := range []string{querylog.Cinema, querylog.FullMoon, querylog.Nordstrom} {
		s := g.Exemplar(name).Standardized()
		h := mustSpectrum(t, s.Values)
		first, err := Compress(h, Wang, 8) // 8 first coefficients
		if err != nil {
			t.Fatal(err)
		}
		best, err := Compress(h, BestError, 8) // 7 best coefficients
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := first.ReconstructionError(s.Values)
		eb, _ := best.ReconstructionError(s.Values)
		if eb >= ef {
			t.Errorf("%s: best-coeff error %v not below first-coeff error %v", name, eb, ef)
		}
	}
}

// Core invariant: SafeBounds always bracket the true distance, every method,
// random data.
func TestSafeBoundsBracketTrueDistance(t *testing.T) {
	f := func(seed int64, budgetRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + int(nRaw)%240
		budget := 2 + int(budgetRaw)%10
		x := stats.Standardize(randSeries(rng, n))
		y := stats.Standardize(randSeries(rng, n))
		hx := mustSpectrum(t, x)
		hy := mustSpectrum(t, y)
		d, _ := Distance(hx, hy)
		for _, m := range Methods() {
			c, err := Compress(hx, m, budget)
			if err != nil {
				return false
			}
			lb, ub, err := c.SafeBounds(hy)
			if err != nil {
				return false
			}
			tol := 1e-7 * (1 + d)
			if lb > d+tol || d > ub+tol {
				t.Logf("%v n=%d budget=%d: lb=%v d=%v ub=%v", m, n, budget, lb, d, ub)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The published fig. 7/8 bounds are strict too; check them specifically.
func TestPaperBoundsStrictMethods(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(100)
		x := stats.Standardize(randSeries(rng, n))
		y := stats.Standardize(randSeries(rng, n))
		hx := mustSpectrum(t, x)
		hy := mustSpectrum(t, y)
		d, _ := Distance(hx, hy)
		for _, m := range []Method{GEMINI, Wang, BestMin, BestError} {
			c, err := Compress(hx, m, 5)
			if err != nil {
				return false
			}
			lb, ub, err := c.Bounds(hy)
			if err != nil {
				return false
			}
			tol := 1e-7 * (1 + d)
			if lb > d+tol || d > ub+tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// On realistic query-log data the fig. 9 bounds should behave as published:
// measure any violations of lb ≤ d ≤ ub and require them to be absent.
func TestPaperBestMinErrorBoundsOnQueryLogs(t *testing.T) {
	g := querylog.New(21)
	data := querylog.StandardizeAll(g.Dataset(40))
	queries := querylog.StandardizeAll(g.Queries(10))
	violations := 0
	total := 0
	for _, s := range data {
		hs := mustSpectrum(t, s.Values)
		c, err := Compress(hs, BestMinError, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			hq := mustSpectrum(t, q.Values)
			d, _ := Distance(hs, hq)
			lb, ub, err := c.Bounds(hq)
			if err != nil {
				t.Fatal(err)
			}
			total++
			tol := 1e-7 * (1 + d)
			if lb > d+tol || d > ub+tol {
				violations++
			}
		}
	}
	if violations != 0 {
		t.Errorf("fig. 9 bounds violated on %d/%d realistic pairs", violations, total)
	}
}

// BestMinError must dominate BestError when both share the same kept
// coefficients: SafeBounds pointwise (it takes the max/min with the
// BestError formulas), the paper's fig. 9 LB at least in aggregate (its
// claim is empirical, not pointwise).
func TestBestMinErrorDominatesOnSameCoeffs(t *testing.T) {
	g := querylog.New(22)
	data := querylog.StandardizeAll(g.Dataset(20))
	q := g.Queries(1)[0].Standardized()
	hq := mustSpectrum(t, q.Values)
	var sumME, sumE float64
	for _, s := range data {
		hs := mustSpectrum(t, s.Values)
		cme, err := compressK(hs, BestMinError, 14)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := compressK(hs, BestError, 14)
		if err != nil {
			t.Fatal(err)
		}
		lbE, ubE, _ := ce.Bounds(hq)
		lbPaper, _, _ := cme.Bounds(hq)
		sumME += lbPaper
		sumE += lbE
		lbSafe, ubSafe, _ := cme.SafeBounds(hq)
		if lbSafe+1e-9 < lbE {
			t.Errorf("%s: safe LB_BestMinError %v < LB_BestError %v", s.Name, lbSafe, lbE)
		}
		if ubSafe > ubE+1e-9 {
			t.Errorf("%s: safe UB_BestMinError %v > UB_BestError %v", s.Name, ubSafe, ubE)
		}
	}
	if sumME < sumE {
		t.Errorf("cumulative paper LB_BestMinError %v below LB_BestError %v (fig. 20 shape)", sumME, sumE)
	}
}

func TestGeminiHasNoUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := stats.Standardize(randSeries(rng, 64))
	h := mustSpectrum(t, x)
	c, err := Compress(h, GEMINI, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, ub, err := c.Bounds(h)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ub, 1) {
		t.Errorf("GEMINI ub = %v, want +Inf", ub)
	}
}

func TestBoundsMismatchedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	h := mustSpectrum(t, randSeries(rng, 64))
	q := mustSpectrum(t, randSeries(rng, 32))
	c, err := Compress(h, BestMinError, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Bounds(q); err != ErrMismatch {
		t.Error("expected ErrMismatch")
	}
}

func TestBoundsExactWhenEverythingKept(t *testing.T) {
	// Keeping all bins makes lb == ub == true distance for error methods.
	rng := rand.New(rand.NewSource(25))
	x := stats.Standardize(randSeries(rng, 32))
	y := stats.Standardize(randSeries(rng, 32))
	hx, hy := mustSpectrum(t, x), mustSpectrum(t, y)
	c, err := compressK(hx, BestMinError, hx.Bins())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Distance(hx, hy)
	lb, ub, err := c.Bounds(hy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-d) > 1e-9 || math.Abs(ub-d) > 1e-9 {
		t.Errorf("full representation: lb=%v ub=%v d=%v", lb, ub, d)
	}
}

func TestCompressEnergy(t *testing.T) {
	g := querylog.New(26)
	s := g.Exemplar(querylog.Cinema).Standardized()
	h := mustSpectrum(t, s.Values)
	c, err := CompressEnergy(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	captured := 0.0
	for _, p := range c.Positions {
		captured += h.Power(p)
	}
	if captured < 0.9*h.Energy() {
		t.Errorf("captured %v < 90%% of %v", captured, h.Energy())
	}
	// Periodic data should need far fewer than all bins for 90%.
	if len(c.Positions) > h.Bins()/4 {
		t.Errorf("cinema needed %d of %d bins for 90%% energy", len(c.Positions), h.Bins())
	}
	if _, err := CompressEnergy(h, 0); err == nil {
		t.Error("expected error for fraction 0")
	}
	if _, err := CompressEnergy(h, 1.5); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

func TestCompressEnergyFlatSignal(t *testing.T) {
	h := mustSpectrum(t, make([]float64, 16))
	c, err := CompressEnergy(h, 0.5)
	if err != nil || len(c.Positions) == 0 {
		t.Errorf("flat signal: c=%v err=%v", c, err)
	}
}

func BenchmarkBoundsBestMinError1024(b *testing.B) {
	g := querylog.New(31)
	s := g.Exemplar(querylog.Cinema).Standardized()
	q := g.Exemplar(querylog.Nordstrom).Standardized()
	hs := mustSpectrum(b, s.Values)
	hq := mustSpectrum(b, q.Values)
	c, err := Compress(hs, BestMinError, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Bounds(hq); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaskedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	x := stats.Standardize(randSeries(rng, 64))
	y := stats.Standardize(randSeries(rng, 64))
	hx, hy := mustSpectrum(t, x), mustSpectrum(t, y)
	// All bins == full distance.
	all := make([]int, hx.Bins())
	for i := range all {
		all[i] = i
	}
	full, _ := Distance(hx, hy)
	masked, err := MaskedDistance(hx, hy, all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(masked-full) > 1e-9 {
		t.Errorf("all-bins masked %v != full %v", masked, full)
	}
	// Duplicates counted once.
	dup, err := MaskedDistance(hx, hy, []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	single, _ := MaskedDistance(hx, hy, []int{3})
	if dup != single {
		t.Errorf("duplicate bins double-counted: %v vs %v", dup, single)
	}
	// Subset distance never exceeds the full distance.
	sub, _ := MaskedDistance(hx, hy, []int{1, 5, 9})
	if sub > full+1e-12 {
		t.Errorf("subset %v > full %v", sub, full)
	}
	if _, err := MaskedDistance(hx, hy, []int{999}); err == nil {
		t.Error("expected out-of-range error")
	}
	h32 := mustSpectrum(t, make([]float64, 32))
	if _, err := MaskedDistance(hx, h32, []int{1}); err != ErrMismatch {
		t.Error("expected ErrMismatch")
	}
}

// maskedDistanceRef is MaskedDistance as it was before Mask: validation and
// a seen-set rebuilt on every call.
func maskedDistanceRef(a, b *HalfSpectrum, bins []int) float64 {
	seen := map[int]bool{}
	sum := 0.0
	for _, k := range bins {
		if seen[k] {
			continue
		}
		seen[k] = true
		d := absFast(a.Coeffs[k] - b.Coeffs[k])
		sum += a.Weight(k) * d * d
	}
	return math.Sqrt(sum)
}

// One Mask and one reused spectrum across a scan give, bit for bit, what a
// fresh spectrum and a per-call mask gave — for power-of-two and Bluestein
// lengths, unordered masks with repeats, and after the reused spectrum has
// held a longer sequence.
func TestMaskAndReusedSpectrumMatchPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var reused HalfSpectrum
	if err := FromValuesInto(&reused, randSeries(rng, 200)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 100, 1, 33} {
		hq := mustSpectrum(t, stats.Standardize(randSeries(rng, n)))
		bins := []int{hq.Bins() - 1, 0, hq.Bins() / 2, 0, hq.Bins() - 1, hq.Bins() / 3}
		mask, err := hq.Mask(bins)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < 5; row++ {
			x := randSeries(rng, n)
			fresh := mustSpectrum(t, x)
			if err := FromValuesInto(&reused, x); err != nil {
				t.Fatal(err)
			}
			if reused.N != fresh.N || len(reused.Coeffs) != len(fresh.Coeffs) {
				t.Fatalf("n=%d: reused spectrum shape (%d, %d bins), fresh (%d, %d bins)",
					n, reused.N, len(reused.Coeffs), fresh.N, len(fresh.Coeffs))
			}
			for k := range fresh.Coeffs {
				if reused.Coeffs[k] != fresh.Coeffs[k] {
					t.Fatalf("n=%d bin %d: reused %v, fresh %v", n, k, reused.Coeffs[k], fresh.Coeffs[k])
				}
			}
			want := maskedDistanceRef(hq, fresh, bins)
			got, err := mask.Distance(hq, &reused)
			if err != nil {
				t.Fatal(err)
			}
			perCall, err := MaskedDistance(hq, fresh, bins)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(perCall) != math.Float64bits(want) {
				t.Fatalf("n=%d: Mask.Distance %v, MaskedDistance %v, per-call reference %v", n, got, perCall, want)
			}
		}
		if _, err := mask.Distance(hq, mustSpectrum(t, make([]float64, n+2))); err != ErrMismatch {
			t.Errorf("n=%d: mask over a differently shaped spectrum = %v, want ErrMismatch", n, err)
		}
	}
	if err := FromValuesInto(&reused, nil); err == nil {
		t.Error("FromValuesInto of an empty sequence must fail")
	}
	if _, err := mustSpectrum(t, make([]float64, 8)).Mask([]int{2, -1}); err == nil {
		t.Error("expected out-of-range error from Mask")
	}
}

func TestBinsForPeriods(t *testing.T) {
	h := mustSpectrum(t, make([]float64, 1024))
	// Weekly band at ±5%: bins with period within [6.65, 7.35] days.
	bins := h.BinsForPeriods([]float64{7}, 0.05)
	if len(bins) == 0 {
		t.Fatal("no weekly bins found")
	}
	for _, k := range bins {
		p := 1024.0 / float64(k)
		if p < 6.64 || p > 7.36 {
			t.Errorf("bin %d has period %v outside the band", k, p)
		}
	}
	// Bin 1024/7 ≈ 146 must be included.
	found := false
	for _, k := range bins {
		if k == 146 {
			found = true
		}
	}
	if !found {
		t.Errorf("canonical weekly bin 146 missing: %v", bins)
	}
	if got := h.BinsForPeriods([]float64{-3, 0}, 0.05); len(got) != 0 {
		t.Errorf("non-positive periods matched bins: %v", got)
	}
	if got := h.BinsForPeriods(nil, 0.05); len(got) != 0 {
		t.Errorf("empty periods matched bins: %v", got)
	}
	// |N/k − ∞| ≤ relTol·∞ holds for every bin: an infinite period must be
	// skipped, not matched everywhere.
	if got := h.BinsForPeriods([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, 0.05); len(got) != 0 {
		t.Errorf("non-finite periods matched bins: %v", got)
	}
	if got := h.BinsForPeriods([]float64{math.Inf(1), 7}, 0.05); !slices.Equal(got, bins) {
		t.Errorf("an infinite period beside 7 changed the weekly bins: %v, want %v", got, bins)
	}
}
