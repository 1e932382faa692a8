package benchutil

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/querylog"
	"repro/internal/spectral"
)

func smallCorpus(t testing.TB) *Corpus {
	t.Helper()
	c, err := NewCorpus(120, 10, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCorpusShapes(t *testing.T) {
	c := smallCorpus(t)
	if len(c.Data) != 120 || len(c.Queries) != 10 {
		t.Fatalf("sizes %d/%d", len(c.Data), len(c.Queries))
	}
	if len(c.Spectra) != 120 || len(c.QuerySpectra) != 10 {
		t.Fatal("spectra missing")
	}
	if c.Spectra[0].N != 256 {
		t.Fatalf("spectrum N = %d", c.Spectra[0].N)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Fatalf("width %d", len([]rune(s)))
	}
	if Sparkline(nil, 8) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if len([]rune(flat)) != 3 {
		t.Error("flat sparkline wrong width")
	}
}

// The fig. 20/21 shape: BestMinError has the largest cumulative LB and the
// smallest cumulative UB, and every LB ≤ true ≤ every finite UB.
func TestBoundsExperimentShape(t *testing.T) {
	c := smallCorpus(t)
	budgets := []int{8, 16, 32}
	exp, err := RunBounds(c, budgets, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range budgets {
		var lbs, ubs []float64
		for _, m := range spectral.Methods() {
			cell, ok := exp.Cell(b, m)
			if !ok {
				t.Fatalf("missing cell %d/%v", b, m)
			}
			if cell.CumLB > exp.CumEuclidean*(1+1e-9) {
				t.Errorf("budget %d %v: cumulative LB %v above true %v", b, m, cell.CumLB, exp.CumEuclidean)
			}
			if !math.IsInf(cell.CumUB, 1) && cell.CumUB < exp.CumEuclidean*(1-1e-9) {
				t.Errorf("budget %d %v: cumulative UB %v below true %v", b, m, cell.CumUB, exp.CumEuclidean)
			}
			lbs = append(lbs, cell.CumLB)
			ubs = append(ubs, cell.CumUB)
		}
		// BestMinError is last in Methods(); it must have the max LB of all
		// methods (fig. 20 claim) and the min UB of the best-coefficient
		// methods (fig. 21). Against Wang's UB we only require near-parity
		// in general: the paper's printed fig. 9 UB was unsound (see
		// DESIGN.md), and our sound replacement concedes a percent on
		// first-coefficient-friendly series at large budgets.
		bmeLB, bmeUB := lbs[len(lbs)-1], ubs[len(ubs)-1]
		for i, m := range spectral.Methods()[:len(lbs)-1] {
			if bmeLB < lbs[i]-1e-9 {
				t.Errorf("budget %d: LB_BestMinError %v < LB_%v %v", b, bmeLB, m, lbs[i])
			}
			if m.UsesBest() && !math.IsInf(ubs[i], 1) && bmeUB > ubs[i]+1e-9 {
				t.Errorf("budget %d: UB_BestMinError %v > UB_%v %v", b, bmeUB, m, ubs[i])
			}
		}
		if imp := exp.LBImprovement(b); math.IsNaN(imp) || imp < 0 {
			t.Errorf("budget %d: LB improvement %v", b, imp)
		}
		if imp := exp.UBImprovement(b); math.IsNaN(imp) || imp < -3 {
			t.Errorf("budget %d: UB improvement %v below -3%%", b, imp)
		}
	}
	// At the tightest budget the best-coefficient advantage dominates and
	// BestMinError must beat Wang's UB outright.
	if imp := exp.UBImprovement(budgets[0]); imp <= 0 {
		t.Errorf("budget %d: UB improvement %v not positive", budgets[0], imp)
	}
	var sb strings.Builder
	exp.PrintLB(&sb, budgets)
	exp.PrintUB(&sb, budgets)
	out := sb.String()
	if !strings.Contains(out, "Fig. 20") || !strings.Contains(out, "Fig. 21") ||
		!strings.Contains(out, "N/A") {
		t.Errorf("print output malformed:\n%s", out)
	}
}

// The fig. 22 shape: BestMinError examines the smallest fraction, and more
// memory (higher budgets) never makes any method drastically worse.
func TestPruningExperimentShape(t *testing.T) {
	c := smallCorpus(t)
	sizes := []int{120}
	budgets := []int{8, 32}
	methods := []spectral.Method{spectral.GEMINI, spectral.Wang, spectral.BestMinError}
	exp, err := RunPruning(c, sizes, budgets, methods)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range budgets {
		g, _ := exp.Cell(120, b, spectral.GEMINI)
		wng, _ := exp.Cell(120, b, spectral.Wang)
		bme, _ := exp.Cell(120, b, spectral.BestMinError)
		if bme.Fraction > g.Fraction+1e-9 || bme.Fraction > wng.Fraction+1e-9 {
			t.Errorf("budget %d: BestMinError fraction %.4f not best (GEMINI %.4f, Wang %.4f)",
				b, bme.Fraction, g.Fraction, wng.Fraction)
		}
		for _, cell := range []PruneCell{g, wng, bme} {
			if cell.Fraction <= 0 || cell.Fraction > 1 {
				t.Errorf("fraction out of range: %+v", cell)
			}
		}
	}
	var sb strings.Builder
	exp.Print(&sb, sizes, budgets, methods)
	if !strings.Contains(sb.String(), "Fig. 22") {
		t.Error("print output malformed")
	}
}

// The fig. 23 shape: both index configurations return correct answers and
// the in-memory index beats the linear scan.
func TestIndexExperimentShape(t *testing.T) {
	c := smallCorpus(t)
	exp, err := RunIndex(c, []int{120}, []int{16}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := exp.Cell(120, 16)
	if !ok {
		t.Fatal("missing cell")
	}
	if !cell.Correct {
		t.Error("index answers diverged from linear scan")
	}
	if cell.LinearScan <= 0 || cell.IndexMemory <= 0 || cell.IndexDisk <= 0 {
		t.Errorf("non-positive timings: %+v", cell)
	}
	var sb strings.Builder
	exp.Print(&sb)
	if !strings.Contains(sb.String(), "Fig. 23") {
		t.Error("print output malformed")
	}
}

func TestFig4(t *testing.T) {
	rows, err := RunFig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || rows[0].Bin != 0 {
		t.Fatalf("rows: %+v", rows)
	}
	var sb strings.Builder
	PrintFig4(&sb, rows)
	if !strings.Contains(sb.String(), "Fig. 4") {
		t.Error("malformed output")
	}
}

// Fig. 5 shape: the best coefficients beat the first coefficients for every
// periodic query shown in the paper.
func TestFig5Shape(t *testing.T) {
	rows, err := RunFig5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ErrBest4 >= r.ErrFirst5 {
			t.Errorf("%s: best-4 error %.2f not below first-5 error %.2f",
				r.Query, r.ErrBest4, r.ErrFirst5)
		}
	}
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "cinema") {
		t.Error("malformed output")
	}
}

func TestTable1Print(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb, []int{8, 16, 32})
	out := sb.String()
	for _, want := range []string{"GEMINI", "BestMinError", "28"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := RunFig12(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Lambda <= 0 {
			t.Errorf("%s: lambda %v", r.Name, r.Lambda)
		}
		// The fit should be decent for genuinely non-periodic data.
		if r.RelFitError > 1 {
			t.Errorf("%s: relative exponential fit error %v too large", r.Name, r.RelFitError)
		}
	}
	var sb strings.Builder
	PrintFig12(&sb, rows)
	if !strings.Contains(sb.String(), "Fig. 12") {
		t.Error("malformed output")
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := RunFig13(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig13Row{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	near := func(r Fig13Row, want, tol float64) bool {
		for _, x := range r.Top {
			if math.Abs(x.Length-want) <= tol {
				return true
			}
		}
		return false
	}
	if !near(byName[querylog.Cinema], 7, 0.2) {
		t.Errorf("cinema periods: %v", byName[querylog.Cinema].Top)
	}
	if !near(byName[querylog.FullMoon], 29.53, 1.5) {
		t.Errorf("full moon periods: %v", byName[querylog.FullMoon].Top)
	}
	if !near(byName[querylog.Nordstrom], 7, 0.2) {
		t.Errorf("nordstrom periods: %v", byName[querylog.Nordstrom].Top)
	}
	if len(byName[querylog.DudleyMoore].Top) > 2 {
		t.Errorf("dudley moore should have ~no periods: %v", byName[querylog.DudleyMoore].Top)
	}
	var sb strings.Builder
	PrintFig13(&sb, rows)
	if !strings.Contains(sb.String(), "threshold") {
		t.Error("malformed output")
	}
}

func TestBurstFigures(t *testing.T) {
	hw, err := RunBurstFigure(1, querylog.Halloween, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(hw.Bursts) == 0 {
		t.Error("halloween: no bursts")
	}
	var sb strings.Builder
	hw.Print(&sb)
	if !strings.Contains(sb.String(), "halloween") {
		t.Error("malformed output")
	}
	fm, err := RunBurstFigure(1, querylog.FullMoon, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Bursts) < 20 {
		t.Errorf("full moon short-term bursts = %d, want ~monthly", len(fm.Bursts))
	}
}

func TestFig19Shape(t *testing.T) {
	rows, err := RunFig19(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Matches) == 0 {
			t.Errorf("query %s: no matches", r.Query)
		}
	}
	var sb strings.Builder
	PrintFig19(&sb, rows)
	if !strings.Contains(sb.String(), "world trade center") {
		t.Error("malformed output")
	}
}

func TestPrintIntro(t *testing.T) {
	var sb strings.Builder
	PrintIntro(&sb, 1)
	if !strings.Contains(sb.String(), "cinema") || !strings.Contains(sb.String(), "elvis") {
		t.Error("malformed intro output")
	}
}

// The §6 comparator claims: the paper's MA detector is faster than the
// Kleinberg automaton and its triplets need far less storage than the
// Zhu-Shasha SBT structure.
//
// The speed claim compares two wall-clock loops of a few milliseconds each,
// so one pass can be lost to whatever else the machine is running. It is
// asserted on the best of five passes per detector — a neighbour's load only
// ever adds time, and the gap is a factor of about three (31 µs against 89 µs
// a sequence), so a minimum that still fails says something about the code.
func TestBaselinesShape(t *testing.T) {
	var rows []BaselineRow
	var maBest, kbBest time.Duration
	for pass := 0; pass < 5; pass++ {
		var err error
		if rows, err = RunBaselines(1, 60); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("%d rows", len(rows))
		}
		if pass == 0 || rows[0].TimePerSeq < maBest {
			maBest = rows[0].TimePerSeq
		}
		if pass == 0 || rows[1].TimePerSeq < kbBest {
			kbBest = rows[1].TimePerSeq
		}
	}
	ma, zs := rows[0], rows[2]
	if maBest >= kbBest {
		t.Errorf("MA detector (best of 5: %v) not faster than Kleinberg (best of 5: %v)", maBest, kbBest)
	}
	if ma.StorageFloats*20 >= zs.StorageFloats {
		t.Errorf("triplet storage %v not ≪ SBT storage %v", ma.StorageFloats, zs.StorageFloats)
	}
	if ma.Bursts <= 0 {
		t.Error("MA found no bursts")
	}
	var sb strings.Builder
	PrintBaselines(&sb, rows)
	if !strings.Contains(sb.String(), "Kleinberg") {
		t.Error("malformed baselines output")
	}
}

// The §8 energy sweep: more captured energy ⇒ more coefficients and at
// least as good pruning; sizes adapt per sequence.
func TestEnergySweepShape(t *testing.T) {
	c := smallCorpus(t)
	rows, err := RunEnergySweep(c, 120, []float64{0.8, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	lo, hi := rows[0], rows[1]
	if hi.MeanCoeffs <= lo.MeanCoeffs {
		t.Errorf("coefficients did not grow with energy: %v vs %v", lo.MeanCoeffs, hi.MeanCoeffs)
	}
	if hi.FractionExamined > lo.FractionExamined+0.05 {
		t.Errorf("pruning regressed with more energy: %v vs %v",
			hi.FractionExamined, lo.FractionExamined)
	}
	for _, r := range rows {
		if r.MinCoeffs < 1 || r.MaxCoeffs <= r.MinCoeffs {
			t.Errorf("no per-sequence adaptivity: %+v", r)
		}
		if r.FractionExamined <= 0 || r.FractionExamined > 1 {
			t.Errorf("fraction out of range: %+v", r)
		}
	}
	var sb strings.Builder
	PrintEnergySweep(&sb, rows, 120)
	if !strings.Contains(sb.String(), "energy") {
		t.Error("malformed output")
	}
}

// The §3 generalization claim quantified: both bases produce working
// compressed representations; DFT wins on this periodic corpus.
func TestBasisComparisonShape(t *testing.T) {
	c := smallCorpus(t)
	rows, err := RunBasisComparison(c, 120, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	dft, haar := rows[0], rows[1]
	if dft.Basis != "DFT" || haar.Basis != "Haar" {
		t.Fatalf("bases: %v", rows)
	}
	for _, r := range rows {
		if r.MeanReconErr <= 0 {
			t.Errorf("%s: recon error %v", r.Basis, r.MeanReconErr)
		}
		if r.FractionExamined <= 0 || r.FractionExamined > 1 {
			t.Errorf("%s: fraction %v", r.Basis, r.FractionExamined)
		}
	}
	if dft.MeanReconErr >= haar.MeanReconErr {
		t.Errorf("DFT should reconstruct periodic data better: %v vs %v",
			dft.MeanReconErr, haar.MeanReconErr)
	}
	var sb strings.Builder
	PrintBasisComparison(&sb, rows, 120)
	if !strings.Contains(sb.String(), "Haar") {
		t.Error("malformed output")
	}
}
