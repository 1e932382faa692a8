package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// WideEvent is one request-scoped "wide event": everything worth knowing
// about a single request in one flat, structured JSON record — the query
// kind, its budgets, how long it queued for admission, how much index work
// it did, how it ended, and (for sharded requests) how the work spread over
// the shards. One event is emitted per request at completion; the
// RequestLog ring retains recent events for /debug/requests.
type WideEvent struct {
	// RequestID joins the event with the /v2/search response, the admission
	// shed response, the query's trace and the slow-query log.
	RequestID string `json:"request_id"`
	// TraceID is the W3C trace ID of the request's trace ("" when the
	// request ran untraced) — the join key into /debug/traces, the slow
	// log and metric exemplars.
	TraceID string `json:"trace_id,omitempty"`
	// Time is when the request entered the engine (or was shed).
	Time time.Time `json:"time"`
	// Op is the request kind (similar, linear, dtw, periods, qbb, qbb_id)
	// or "admission_shed" for requests that never got a slot.
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

	// Index work and prune attribution (index-backed kinds).
	NodesVisited   int `json:"nodes_visited,omitempty"`
	BoundsComputed int `json:"bounds_computed,omitempty"`
	Candidates     int `json:"candidates,omitempty"`
	FullRetrievals int `json:"full_retrievals,omitempty"`
	LBPrunes       int `json:"lb_prunes,omitempty"`
	UBPrunes       int `json:"ub_prunes,omitempty"`

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

// Find returns the most recent retained event with the given request ID.
func (l *RequestLog) Find(id string) (WideEvent, bool) {
	for _, ev := range l.Snapshot() {
		if ev.RequestID == id {
			return ev, true
		}
	}
	return WideEvent{}, false
}

// FindByKey returns the most recent retained event whose request ID *or*
// trace ID equals key — the cross-surface join /debug/requests and
// /debug/traces share: either identifier resolves the same request.
func (l *RequestLog) FindByKey(key string) (WideEvent, bool) {
	if key == "" {
		return WideEvent{}, false
	}
	for _, ev := range l.Snapshot() {
		if ev.RequestID == key || (ev.TraceID != "" && ev.TraceID == key) {
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

// ---------------------------------------------------------------------------
// Request IDs

// reqNonce distinguishes processes so IDs from two runs never collide in
// logs; reqSeq orders IDs within a process.
var (
	reqNonce = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degenerate fallback: sequence numbers still make IDs unique
			// within the process.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Uint64
)

// newRequestID mints a process-unique request ID ("q-<nonce>-<seq>").
func newRequestID() string {
	return fmt.Sprintf("q-%s-%d", reqNonce, reqSeq.Add(1))
}

// requestIDKey carries a request ID through a context.
type requestIDKey struct{}

// withRequestID returns ctx annotated with the request ID.
func withRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID on ctx ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// EnsureRequestID returns ctx carrying a request ID, minting one if ctx has
// none, plus the ID itself. A nil ctx is promoted to context.Background.
func EnsureRequestID(ctx context.Context) (context.Context, string) {
	if ctx == nil {
		ctx = context.Background()
	}
	if id := RequestIDFrom(ctx); id != "" {
		return ctx, id
	}
	id := newRequestID()
	return withRequestID(ctx, id), id
}
