package lifecycle

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	for i := 0; i < 1000; i++ {
		if ok, err := g.Visit(); !ok || err != nil {
			t.Fatalf("nil gate Visit = (%v, %v)", ok, err)
		}
		if ok, err := g.Exact(); !ok || err != nil {
			t.Fatalf("nil gate Exact = (%v, %v)", ok, err)
		}
	}
	if g.Truncated() {
		t.Fatal("nil gate reports truncated")
	}
	if err := g.Check(); err != nil {
		t.Fatalf("nil gate Check = %v", err)
	}
}

func TestNewGateReturnsNilWhenUnlimited(t *testing.T) {
	if g := NewGate(context.Background(), Limits{}); g != nil {
		t.Fatal("background ctx + zero limits should yield the nil gate")
	}
	if g := NewGate(nil, Limits{}); g != nil {
		t.Fatal("nil ctx + zero limits should yield the nil gate")
	}
	if g := NewGate(context.Background(), Limits{MaxNodes: 1}); g == nil {
		t.Fatal("MaxNodes limit must yield a real gate")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g := NewGate(ctx, Limits{}); g == nil {
		t.Fatal("cancellable ctx must yield a real gate")
	}
}

func TestCancelledContextAbortsOnFirstVisit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGate(ctx, Limits{})
	ok, err := g.Visit()
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("first Visit after cancel = (%v, %v), want (false, Canceled)", ok, err)
	}
	if g.Truncated() {
		t.Fatal("cancellation must not be reported as truncation")
	}
}

func TestCancellationDetectedWithinStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGate(ctx, Limits{})
	if ok, err := g.Visit(); !ok || err != nil {
		t.Fatalf("pre-cancel Visit = (%v, %v)", ok, err)
	}
	cancel()
	aborted := false
	for i := 0; i < checkStride+1; i++ {
		if _, err := g.Visit(); err != nil {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Fatalf("cancellation not observed within %d visits", checkStride+1)
	}
}

func TestMaxNodesTruncates(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxNodes: 5})
	admitted := 0
	for i := 0; i < 20; i++ {
		ok, err := g.Visit()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if ok {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("admitted %d visits, want 5", admitted)
	}
	if !g.Truncated() {
		t.Fatal("gate should report truncated")
	}
}

func TestMaxExactTruncates(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxExact: 3})
	admitted := 0
	for i := 0; i < 10; i++ {
		ok, err := g.Exact()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d exact computations, want 3", admitted)
	}
	if !g.Truncated() {
		t.Fatal("gate should report truncated")
	}
}

// Skip spends neither budget, however often it is called, but it does run
// the amortized checks: cancellation aborts it within a stride, an expired
// deadline or an earlier truncation stops it without error.
func TestSkipSpendsNothingButObservesTheGate(t *testing.T) {
	var none *Gate
	if ok, err := none.Skip(); !ok || err != nil {
		t.Fatalf("nil gate Skip = (%v, %v)", ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGate(ctx, Limits{MaxNodes: 2, MaxExact: 2})
	for i := 0; i < 100; i++ {
		if ok, err := g.Skip(); !ok || err != nil {
			t.Fatalf("Skip #%d = (%v, %v)", i, ok, err)
		}
	}
	if g.nodes != 0 || g.ExactDistances() != 0 || g.Truncated() {
		t.Fatalf("100 skips spent budget: nodes %d exact %d truncated %v", g.nodes, g.ExactDistances(), g.Truncated())
	}
	cancel()
	calls := 0
	for {
		calls++
		if ok, err := g.Skip(); err != nil {
			if ok || !errors.Is(err, context.Canceled) {
				t.Fatalf("Skip after cancel = (%v, %v)", ok, err)
			}
			break
		}
		if calls > checkStride {
			t.Fatalf("cancellation unseen after %d skips (stride %d)", calls, checkStride)
		}
	}

	late := NewGate(context.Background(), Limits{Deadline: time.Now().Add(-time.Second)})
	if ok, err := late.Skip(); ok || err != nil || !late.Truncated() {
		t.Fatalf("Skip past the deadline = (%v, %v), truncated %v", ok, err, late.Truncated())
	}
	spent := NewGate(context.Background(), Limits{MaxExact: 1})
	spent.Exact()
	spent.Exact() // refused: the gate is now truncated
	if ok, err := spent.Skip(); ok || err != nil {
		t.Fatalf("Skip on a truncated gate = (%v, %v)", ok, err)
	}
}

func TestExpiredDeadlineTruncatesPromptly(t *testing.T) {
	g := NewGate(context.Background(), Limits{Deadline: time.Now().Add(-time.Second)})
	ok, err := g.Visit()
	if err != nil {
		t.Fatalf("deadline expiry must not error: %v", err)
	}
	if ok {
		t.Fatal("first Visit past the deadline should be refused")
	}
	if !g.Truncated() {
		t.Fatal("gate should report truncated")
	}
}

func TestGraceAllowsBoundedRefinementAfterTruncation(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxNodes: 1})
	g.Visit()
	g.Visit() // trips the node budget
	if !g.Truncated() {
		t.Fatal("setup: gate should be truncated")
	}
	if ok, _ := g.Exact(); ok {
		t.Fatal("Exact should be refused after truncation without grace")
	}
	g.Grace(2)
	for i := 0; i < 2; i++ {
		if ok, err := g.Exact(); !ok || err != nil {
			t.Fatalf("grace Exact %d = (%v, %v)", i, ok, err)
		}
	}
	if ok, _ := g.Exact(); ok {
		t.Fatal("Exact should be refused once grace is spent")
	}
}

func TestGraceDoesNotOverrideMaxExact(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxExact: 1})
	g.Exact()
	g.Grace(10)
	if ok, _ := g.Exact(); ok {
		t.Fatal("grace must not exceed the explicit MaxExact cap")
	}
}

func TestGraceStillObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGate(ctx, Limits{MaxNodes: 1})
	g.Visit()
	g.Visit()
	g.Grace(5)
	cancel()
	if ok, err := g.Exact(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("grace Exact after cancel = (%v, %v), want (false, Canceled)", ok, err)
	}
}

func TestSplitSharesBudgetAndAbsorbMerges(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxNodes: 10})
	kids := g.Split(4)
	if len(kids) != 4 {
		t.Fatalf("Split returned %d children", len(kids))
	}
	total := 0
	for _, k := range kids {
		for {
			ok, err := k.Visit()
			if err != nil {
				t.Fatalf("child Visit error: %v", err)
			}
			if !ok {
				break
			}
			total++
		}
	}
	// Ceiling split: each of 4 children gets ceil(10/4)=3, so 10..12 total.
	if total < 10 || total > 12 {
		t.Fatalf("children admitted %d visits, want 10..12", total)
	}
	g.Absorb(kids...)
	if !g.Truncated() {
		t.Fatal("parent should absorb child truncation")
	}
	if g.nodes != total {
		t.Fatalf("parent nodes = %d, want %d", g.nodes, total)
	}
}

func TestSplitOnNilGate(t *testing.T) {
	var g *Gate
	kids := g.Split(3)
	if len(kids) != 3 {
		t.Fatalf("Split on nil gate returned %d children", len(kids))
	}
	for _, k := range kids {
		if k != nil {
			t.Fatal("nil gate must split into nil children")
		}
		if ok, err := k.Visit(); !ok || err != nil {
			t.Fatalf("nil child Visit = (%v, %v)", ok, err)
		}
	}
	g.Absorb(kids...) // must not panic
}

func TestCheckReportsContextState(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGate(ctx, Limits{})
	if err := g.Check(); err != nil {
		t.Fatalf("Check before cancel = %v", err)
	}
	cancel()
	if err := g.Check(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check after cancel = %v, want Canceled", err)
	}
}

// Seeded carries a radius and nothing else: on the nil gate it makes a gate
// that limits nothing, on a real one it keeps the limits, and Seed is +Inf
// wherever no seed was set.
func TestSeededCarriesOnlyTheRadius(t *testing.T) {
	var none *Gate
	if !math.IsInf(none.Seed(), 1) || !math.IsInf(NewGate(nil, Limits{MaxNodes: 1}).Seed(), 1) {
		t.Fatal("an unseeded gate's Seed is not +Inf")
	}
	g := none.Seeded(2)
	if g == nil || g.Seed() != 2 {
		t.Fatalf("nil.Seeded(2) = %v", g)
	}
	for i := 0; i < 100; i++ {
		if ok, err := g.Visit(); !ok || err != nil {
			t.Fatalf("seeded unlimited gate Visit = (%v, %v)", ok, err)
		}
		if ok, err := g.Exact(); !ok || err != nil {
			t.Fatalf("seeded unlimited gate Exact = (%v, %v)", ok, err)
		}
	}
	if g.Truncated() || g.Approximate() || !math.IsInf(g.BoundFloor(), 1) || g.Relax(3) != 3 {
		t.Fatal("a seed changed the gate's outcome or radius algebra")
	}
	lim := NewGate(nil, Limits{MaxNodes: 1}).Seeded(0)
	if lim.Seed() != 0 {
		t.Fatalf("Seeded(0).Seed() = %v", lim.Seed())
	}
	lim.Visit()
	if ok, _ := lim.Visit(); ok || !lim.Truncated() {
		t.Fatal("Seeded dropped the gate's node budget")
	}
}

// A truncated search's grace lets sketch rejections through, as it does
// exact distances; without grace a rejection reports the truncation.
func TestSkipHonoursGrace(t *testing.T) {
	g := NewGate(context.Background(), Limits{MaxNodes: 1})
	g.Visit()
	g.Visit() // truncates
	if ok, err := g.Skip(); ok || err != nil {
		t.Fatalf("truncated Skip without grace = (%v, %v), want (false, nil)", ok, err)
	}
	g.Grace(1)
	for i := 0; i < 20; i++ {
		if ok, err := g.Skip(); !ok || err != nil {
			t.Fatalf("truncated Skip under grace = (%v, %v), want (true, nil)", ok, err)
		}
	}
	if ok, err := g.Exact(); !ok || err != nil {
		t.Fatalf("Exact under grace = (%v, %v); skips must not spend grace", ok, err)
	}
	if ok, _ := g.Skip(); ok {
		t.Fatal("Skip after the grace was spent admitted")
	}
}
