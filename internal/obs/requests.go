package obs

import "time"

// WideEvent is one request-scoped "wide event": everything worth knowing
// about a single request in one flat, structured JSON record — the query
// kind, its budgets, how long it queued for admission, how much index work
// it did, how it ended, and (for sharded requests) how the work spread over
// the shards. One event is emitted per request at completion; the
// RequestLog ring retains recent events for /debug/requests.
type WideEvent struct {
	// TraceID is the W3C trace ID of the request's trace, the request's one
	// identifier ("" when it ran untraced): the /v2/search response, the
	// admission shed response, /debug/traces and the slow-query log carry
	// the same one.
	TraceID string `json:"trace_id,omitempty"`
	// Time is when the request entered the engine (or was shed).
	Time time.Time `json:"time"`
	// Op is the request kind (similar, linear, dtw, periods, qbb, qbb_id),
	// "admission_shed" for requests that never got a slot, or "http_error"
	// for a /v2/search request answered with an error before any query ran.
	Op string `json:"op"`
	K  int    `json:"k,omitempty"`

	// Budget echo: the limits the request ran under (0 = unlimited).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MaxNodes   int   `json:"max_nodes,omitempty"`
	MaxExact   int   `json:"max_exact,omitempty"`

	// QueueWaitMS is time spent queued for admission before execution (or
	// before being shed).
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// DurationMS is execution wall time (excluding queue wait).
	DurationMS float64 `json:"duration_ms"`

	// Index work and prune attribution (the similarity kinds).
	BoundsComputed int `json:"bounds_computed,omitempty"`
	Candidates     int `json:"candidates,omitempty"`
	FullRetrievals int `json:"full_retrievals,omitempty"`
	LBPrunes       int `json:"lb_prunes,omitempty"`

	// Results is how many neighbours/matches were returned.
	Results int `json:"results"`

	// Truncated marks budget-degraded partial answers; Abort carries the
	// cause when the request did not complete normally: "canceled",
	// "deadline", "budget", "queue_full", "wait_timeout" or "error".
	Truncated bool   `json:"truncated,omitempty"`
	Abort     string `json:"abort,omitempty"`
	Error     string `json:"error,omitempty"`

	// Sharded requests only: how many shards answered and how many
	// results each contributed.
	Workers      int     `json:"workers,omitempty"`
	WorkerSpread []int64 `json:"worker_spread,omitempty"`
}

// RequestLog rings the last N wide events, every one of them. All methods
// are nil-safe.
type RequestLog struct {
	ring *ring[WideEvent]
}

// NewRequestLog creates a ring retaining the last `capacity` events
// (default 256 when capacity <= 0).
func NewRequestLog(capacity int) *RequestLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &RequestLog{ring: newRing[WideEvent](capacity)}
}

// Record adds one event to the log (no-op on a nil log).
func (l *RequestLog) Record(ev WideEvent) {
	if l == nil {
		return
	}
	l.ring.push(ev)
}

// Snapshot returns the retained events, most recent first (nil on a nil
// log).
func (l *RequestLog) Snapshot() []WideEvent {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}

// Find returns the most recent retained event of the request with the
// given trace ID.
func (l *RequestLog) Find(traceID string) (WideEvent, bool) {
	if traceID == "" {
		return WideEvent{}, false
	}
	for _, ev := range l.Snapshot() {
		if ev.TraceID == traceID {
			return ev, true
		}
	}
	return WideEvent{}, false
}

// Len returns the number of retained events.
func (l *RequestLog) Len() int {
	if l == nil {
		return 0
	}
	return l.ring.len()
}
