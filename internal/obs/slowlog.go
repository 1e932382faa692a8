package obs

import (
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"
)

// SlowEntry is one retained slow query: its finished span tree plus the
// explain report the trace carries (if any).
type SlowEntry struct {
	// Time is when the slow query finished.
	Time time.Time `json:"time"`
	// TraceID is the W3C trace ID of the retained trace — the request's
	// one identifier, the same join key /debug/traces, /debug/requests
	// and the /v2/search response carry.
	TraceID string `json:"trace_id,omitempty"`
	// DurationMS is the root span's wall time.
	DurationMS float64 `json:"duration_ms"`
	// QueueWaitMS is the admission queue wait annotated on the trace (0
	// when the query never queued).
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// ThresholdMS is the threshold that was in force when the entry was
	// recorded.
	ThresholdMS float64 `json:"threshold_ms"`
	// Trace is the query's full span tree.
	Trace TraceRecord `json:"trace"`
	// Explain is the explain report attached via Trace.Attach, when the
	// request asked for one (JSON-marshalable).
	Explain any `json:"explain,omitempty"`
}

// SlowLog retains the last N queries whose wall time met a configurable
// threshold, and emits one structured log record per slow query through
// log/slog. The zero threshold disables it; all methods are nil-safe.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = disabled
	logger    atomic.Pointer[slog.Logger]
	total     atomic.Int64
	ring      *ring[SlowEntry]
}

// newSlowLog creates a disabled slow-query log retaining the last
// `capacity` entries (default 32 when capacity <= 0). Entries are logged
// through slog.Default until SetLogger installs another logger.
func newSlowLog(capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = 32
	}
	return &SlowLog{ring: newRing[SlowEntry](capacity)}
}

// SetThreshold sets the latency threshold at or above which queries are
// retained and logged. Zero (or negative) disables the log.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	l.threshold.Store(int64(d))
}

// Threshold returns the active threshold (0 = disabled, also on nil).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.threshold.Load())
}

// Enabled reports whether the log currently retains anything.
func (l *SlowLog) Enabled() bool { return l.Threshold() > 0 }

// SetLogger installs the slog logger slow queries are reported through
// (nil restores slog.Default).
func (l *SlowLog) SetLogger(lg *slog.Logger) {
	if l == nil {
		return
	}
	l.logger.Store(lg)
}

func (l *SlowLog) slogger() *slog.Logger {
	if lg := l.logger.Load(); lg != nil {
		return lg
	}
	return slog.Default()
}

// Observe offers one finished query to the log: when d meets the threshold
// the span tree and the explain report it carries are retained and a
// structured record is logged. No-op on a nil log or below the threshold.
func (l *SlowLog) Observe(rec TraceRecord, d time.Duration) {
	if l == nil {
		return
	}
	thr := l.Threshold()
	if thr <= 0 || d < thr {
		return
	}
	l.total.Add(1)
	entry := SlowEntry{
		Time:        time.Now(),
		TraceID:     rec.TraceID,
		DurationMS:  float64(d) / float64(time.Millisecond),
		QueueWaitMS: rootAttrFloat(rec, "queue_wait_ms"),
		ThresholdMS: float64(thr) / float64(time.Millisecond),
		Trace:       rec,
		Explain:     rec.Explain,
	}
	l.ring.push(entry)
	l.slogger().Warn("slow query",
		slog.String("op", rec.Root.Name),
		slog.String("trace_id", rec.TraceID),
		slog.Uint64("trace_seq", rec.ID),
		slog.Float64("duration_ms", entry.DurationMS),
		slog.Float64("queue_wait_ms", entry.QueueWaitMS),
		slog.Float64("threshold_ms", entry.ThresholdMS),
		slog.Int("spans", countSpans(rec.Root)),
		slog.Bool("explained", rec.Explain != nil),
	)
}

// rootAttr returns the value of one root-span annotation ("" when absent).
func rootAttr(rec TraceRecord, key string) string {
	for _, a := range rec.Root.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// rootAttrFloat parses a numeric root-span annotation (0 when absent or
// malformed).
func rootAttrFloat(rec TraceRecord, key string) float64 {
	s := rootAttr(rec, key)
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

func countSpans(s SpanRecord) int {
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}

// Snapshot returns the retained slow queries, most recent first (nil on a
// nil log).
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}

// Len returns the number of retained entries.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	return l.ring.len()
}

// Total returns the number of slow queries seen over the log's lifetime
// (retained or since evicted).
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total.Load()
}
