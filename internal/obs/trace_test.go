package obs

import (
	"context"
	"strconv"
	"sync"
	"testing"
)

// StartTrace begins a trace whose root span has the given name, minting a
// fresh trace ID. A nil tracer returns a nil (no-op) trace.
func (t *Tracer) StartTrace(name string) *Trace {
	tr, _ := t.StartTraceCtx(context.Background(), name)
	return tr
}

func TestTraceSpanTree(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8).StartTrace("query")
	tr.Annotate("k", "5")
	search := tr.Span("search")
	search.Child("descend").Finish()
	search.Annotate("nodes", "12")
	search.Finish()
	tr.Span("refine").Finish()
	tr.Finish()

	rec := tr.tracer.Snapshot()[0]
	if rec.Root.Name != "query" || rec.ID != 1 {
		t.Fatalf("root = %q id=%d", rec.Root.Name, rec.ID)
	}
	if len(rec.Root.Attrs) != 1 || rec.Root.Attrs[0] != (Attr{Key: "k", Value: "5"}) {
		t.Errorf("root attrs = %v", rec.Root.Attrs)
	}
	if len(rec.Root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(rec.Root.Children))
	}
	s := rec.Root.Children[0]
	if s.Name != "search" || len(s.Children) != 1 || s.Children[0].Name != "descend" {
		t.Errorf("span tree wrong: %+v", s)
	}
	if s.DurationMS < 0 {
		t.Errorf("negative duration %v", s.DurationMS)
	}
}

func TestTracerRingEviction(t *testing.T) {
	t.Parallel()
	tc := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr := tc.StartTrace("t" + strconv.Itoa(i))
		tr.Finish()
	}
	if tc.Len() != 4 {
		t.Fatalf("retained %d traces, want 4", tc.Len())
	}
	snap := tc.Snapshot()
	// Most recent first: t10, t9, t8, t7.
	want := []string{"t10", "t9", "t8", "t7"}
	for i, rec := range snap {
		if rec.Root.Name != want[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, rec.Root.Name, want[i])
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	t.Parallel()
	tc := NewTracer(8)
	if tc.Len() != 0 || tc.Snapshot() != nil {
		t.Fatal("fresh tracer not empty")
	}
	tc.StartTrace("only").Finish()
	snap := tc.Snapshot()
	if len(snap) != 1 || snap[0].Root.Name != "only" {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestTracerConcurrentFinish(t *testing.T) {
	t.Parallel()
	tc := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := tc.StartTrace("concurrent")
				tr.Span("child").Finish()
				tr.Finish()
			}
		}()
	}
	wg.Wait()
	if tc.Len() != 16 {
		t.Errorf("retained %d, want full ring of 16", tc.Len())
	}
	for _, rec := range tc.Snapshot() {
		if rec.Root.Name != "concurrent" {
			t.Errorf("unexpected trace %q", rec.Root.Name)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	t.Parallel()
	var tc *Tracer
	tr := tc.StartTrace("x")
	if tr != nil {
		t.Fatal("nil tracer returned a trace")
	}
	// The whole chain must be callable on nils.
	tr.Annotate("a", "b")
	sp := tr.Span("child")
	sp.Annotate("c", "d")
	sp.Child("grandchild").Finish()
	sp.Finish()
	tr.Finish()
	if tc.Len() != 0 || tc.Snapshot() != nil {
		t.Error("nil tracer retained traces")
	}
}

func TestUnfinishedSpansGetStamped(t *testing.T) {
	t.Parallel()
	tc := NewTracer(2)
	tr := tc.StartTrace("q")
	tr.Span("never-finished")
	tr.Finish()
	rec := tc.Snapshot()[0]
	if len(rec.Root.Children) != 1 || rec.Root.Children[0].DurationMS < 0 {
		t.Errorf("unfinished child not stamped: %+v", rec.Root.Children)
	}
}
