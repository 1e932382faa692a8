package obs

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// quietLog silences a test slow log's slog output.
func quietLog(l *SlowLog) *SlowLog {
	l.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	return l
}

func TestSlowLogThresholdGate(t *testing.T) {
	t.Parallel()
	l := quietLog(newSlowLog(4))
	if l.Enabled() {
		t.Error("fresh slow log should be disabled")
	}
	rec := TraceRecord{Root: SpanRecord{Name: "q"}}
	l.Observe(rec, time.Second) // disabled: dropped
	if l.Len() != 0 || l.Total() != 0 {
		t.Errorf("disabled log retained an entry: len=%d total=%d", l.Len(), l.Total())
	}

	l.SetThreshold(10 * time.Millisecond)
	if !l.Enabled() || l.Threshold() != 10*time.Millisecond {
		t.Errorf("threshold = %v enabled=%v", l.Threshold(), l.Enabled())
	}
	l.Observe(rec, 5*time.Millisecond) // under threshold: dropped
	if l.Len() != 0 {
		t.Error("under-threshold query retained")
	}
	rec.Explain = "report"
	l.Observe(rec, 20*time.Millisecond)
	if l.Len() != 1 || l.Total() != 1 {
		t.Errorf("len=%d total=%d, want 1/1", l.Len(), l.Total())
	}
	e := l.Snapshot()[0]
	if e.Trace.Root.Name != "q" || e.DurationMS != 20 || e.ThresholdMS != 10 {
		t.Errorf("entry = %+v", e)
	}
	if e.Explain != "report" {
		t.Errorf("Explain = %v", e.Explain)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	t.Parallel()
	l := quietLog(newSlowLog(3))
	l.SetThreshold(time.Nanosecond)
	for i := 0; i < 5; i++ {
		l.Observe(TraceRecord{Root: SpanRecord{Name: string(rune('a' + i))}}, time.Millisecond)
	}
	if l.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", l.Len())
	}
	if l.Total() != 5 {
		t.Errorf("total = %d, want 5", l.Total())
	}
	snap := l.Snapshot()
	// Most recent first: e, d, c survive; a and b evicted.
	var names []string
	for _, e := range snap {
		names = append(names, e.Trace.Root.Name)
	}
	if strings.Join(names, "") != "edc" {
		t.Errorf("snapshot order = %v, want [e d c]", names)
	}
}

func TestSlowLogLogger(t *testing.T) {
	t.Parallel()
	l := newSlowLog(2)
	l.SetThreshold(time.Millisecond)
	var buf bytes.Buffer
	l.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	l.Observe(TraceRecord{ID: 7, TraceID: "0123456789abcdef0123456789abcdef", Root: SpanRecord{Name: "similar_queries"}, Explain: struct{}{}}, 3*time.Millisecond)
	out := buf.String()
	for _, want := range []string{"slow query", "op=similar_queries", "trace_id=0123456789abcdef0123456789abcdef", "trace_seq=7", "explained=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q: %s", want, out)
		}
	}
}

func TestSlowLogNilSafety(t *testing.T) {
	t.Parallel()
	var l *SlowLog
	l.SetThreshold(time.Second)
	l.Observe(TraceRecord{}, time.Second)
	if l.Enabled() || l.Len() != 0 || l.Total() != 0 || l.Snapshot() != nil || l.Threshold() != 0 {
		t.Error("nil SlowLog methods misbehaved")
	}
	var h *Hub
	if h.SlowLog() != nil {
		t.Error("nil hub SlowLog() should be nil")
	}
}

// TestTracerFeedsSlowLog checks the integration: a tracer with a slow log
// hands finished traces over, including the attached explain payload.
func TestTracerFeedsSlowLog(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	sl := quietLog(newSlowLog(8))
	sl.SetThreshold(time.Nanosecond)
	tr.SetSlowLog(sl)

	trace := tr.StartTrace("op")
	trace.Span("child").Finish()
	trace.Attach(map[string]int{"x": 1})
	time.Sleep(time.Millisecond)
	trace.Finish()

	if sl.Len() != 1 {
		t.Fatalf("slow log len = %d", sl.Len())
	}
	e := sl.Snapshot()[0]
	if e.Trace.Root.Name != "op" || len(e.Trace.Root.Children) != 1 {
		t.Errorf("trace = %+v", e.Trace)
	}
	if m, ok := e.Explain.(map[string]int); !ok || m["x"] != 1 {
		t.Errorf("explain payload = %v", e.Explain)
	}

	// Fast traces stay out once a realistic threshold is set.
	sl.SetThreshold(time.Hour)
	t2 := tr.StartTrace("fast")
	t2.Finish()
	if sl.Len() != 1 {
		t.Error("fast trace leaked into the slow log")
	}
}
