package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestRequestLogWraparound(t *testing.T) {
	t.Parallel()
	l := NewRequestLog(4)
	for i := 0; i < 10; i++ {
		l.Record(WideEvent{RequestID: fmt.Sprintf("q-%d", i)})
	}
	if l.Len() != 4 {
		t.Fatalf("ring retains %d, want 4", l.Len())
	}
	snap := l.Snapshot()
	for i, want := range []string{"q-9", "q-8", "q-7", "q-6"} {
		if snap[i].RequestID != want {
			t.Errorf("snapshot[%d] = %s, want %s (most recent first)", i, snap[i].RequestID, want)
		}
	}
	if _, ok := l.Find("q-5"); ok {
		t.Error("evicted event still findable")
	}
	if ev, ok := l.Find("q-7"); !ok || ev.RequestID != "q-7" {
		t.Errorf("Find(q-7) = %+v, %v", ev, ok)
	}
}

func TestRequestLogNilSafe(t *testing.T) {
	t.Parallel()
	var l *RequestLog
	l.Record(WideEvent{}) // must not panic
	if l.Len() != 0 {
		t.Error("nil log should report zero")
	}
	if l.Snapshot() != nil {
		t.Error("nil log snapshot should be nil")
	}
	if _, ok := l.Find("x"); ok {
		t.Error("nil log found an event")
	}
}

func TestRequestIDMintingAndContext(t *testing.T) {
	t.Parallel()
	a, b := newRequestID(), newRequestID()
	if a == b {
		t.Fatalf("two minted IDs collide: %s", a)
	}
	if !strings.HasPrefix(a, "q-") {
		t.Errorf("ID %q should have the q- prefix", a)
	}

	ctx, id := EnsureRequestID(context.Background())
	if id == "" || RequestIDFrom(ctx) != id {
		t.Fatalf("EnsureRequestID minted %q but context carries %q", id, RequestIDFrom(ctx))
	}
	// A second Ensure must adopt, not re-mint.
	ctx2, id2 := EnsureRequestID(ctx)
	if id2 != id {
		t.Errorf("EnsureRequestID re-minted %q over existing %q", id2, id)
	}
	if ctx2 != ctx {
		t.Error("EnsureRequestID should return the same context when the ID exists")
	}

	if RequestIDFrom(context.Background()) != "" {
		t.Error("bare context should carry no request ID")
	}
	if RequestIDFrom(nil) != "" { //nolint:staticcheck // nil-safety contract
		t.Error("nil context should carry no request ID")
	}
	if _, id := EnsureRequestID(nil); id == "" { //nolint:staticcheck // nil-safety contract
		t.Error("EnsureRequestID(nil) should still mint")
	}
	if got := withRequestID(context.Background(), ""); RequestIDFrom(got) != "" {
		t.Error("withRequestID(\"\") should be a no-op")
	}
}
