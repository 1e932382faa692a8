package obs

import (
	"fmt"
	"testing"
)

func TestRequestLogWraparound(t *testing.T) {
	t.Parallel()
	l := NewRequestLog(4)
	for i := 0; i < 10; i++ {
		l.Record(WideEvent{TraceID: fmt.Sprintf("t-%d", i)})
	}
	if l.Len() != 4 {
		t.Fatalf("ring retains %d, want 4", l.Len())
	}
	snap := l.Snapshot()
	for i, want := range []string{"t-9", "t-8", "t-7", "t-6"} {
		if snap[i].TraceID != want {
			t.Errorf("snapshot[%d] = %s, want %s (most recent first)", i, snap[i].TraceID, want)
		}
	}
	if _, ok := l.Find("t-5"); ok {
		t.Error("evicted event still findable")
	}
	if ev, ok := l.Find("t-7"); !ok || ev.TraceID != "t-7" {
		t.Errorf("Find(t-7) = %+v, %v", ev, ok)
	}
	l.Record(WideEvent{Op: "untraced"})
	if ev, ok := l.Find(""); ok {
		t.Errorf("Find(\"\") matched the untraced event %+v", ev)
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
