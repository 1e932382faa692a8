package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records finished traces into a fixed-size ring buffer (the last N
// kept traces). Starting a trace is cheap; nothing is shared until Finish.
// All methods are nil-safe, so instrumented code can trace unconditionally.
//
// Every trace carries a W3C trace context (tracecontext.go): a 16-byte
// trace ID shared by all spans, and one 8-byte span ID per span, with
// parent links. StartTraceCtx adopts the context propagated by an upstream
// caller (a `traceparent` header parsed at the HTTP edge) so cross-process
// traces stitch together; StartTrace mints a fresh root.
//
// When a TailSampler is installed (SetSampler), Finish becomes a tail-based
// sampling point: the keep/drop decision is made with the trace's full
// duration and outcome in hand, so slow, errored, aborted and shed traces
// are always retained while healthy ones are probabilistically sampled.
// Kept traces go to the ring and are offered to the slow log.
type Tracer struct {
	ring *ring[TraceRecord]
	seq  atomic.Uint64
	slow atomic.Pointer[SlowLog]

	sampler atomic.Pointer[TailSampler]
}

// SetSlowLog installs a slow-query log that every kept finished trace is
// offered to (nil detaches it; no-op on a nil tracer).
func (t *Tracer) SetSlowLog(l *SlowLog) {
	if t == nil {
		return
	}
	t.slow.Store(l)
}

// SetSampler installs the tail sampler consulted at every Finish (nil
// detaches it: every trace is kept). No-op on a nil tracer.
func (t *Tracer) SetSampler(s *TailSampler) {
	if t == nil {
		return
	}
	t.sampler.Store(s)
}

// Sampler returns the installed tail sampler (nil when none).
func (t *Tracer) Sampler() *TailSampler {
	if t == nil {
		return nil
	}
	return t.sampler.Load()
}

// NewTracer creates a tracer retaining the last `capacity` traces
// (default 64 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{ring: newRing[TraceRecord](capacity)}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a trace. Spans form a tree; a span and its
// direct children may be manipulated from different goroutines. Every span
// owns a minted W3C span ID; parent links are structural (the tree).
type Span struct {
	mu       sync.Mutex
	name     string
	id       SpanID
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// ID returns the span's W3C span ID (zero on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Outcome is how a request ended, attached to its trace before Finish so
// the tail sampler can keep everything that went wrong. The zero value
// means "completed normally".
type Outcome struct {
	// Error is the failure message ("" on success).
	Error string `json:"error,omitempty"`
	// Aborted marks context cancellation/deadline aborts.
	Aborted bool `json:"aborted,omitempty"`
	// Shed marks requests rejected by admission control (429/503).
	Shed bool `json:"shed,omitempty"`
	// Truncated marks budget-degraded partial answers.
	Truncated bool `json:"truncated,omitempty"`
	// HTTPStatus is the response status when the trace wraps an HTTP
	// request (0 otherwise).
	HTTPStatus int `json:"http_status,omitempty"`
}

// zero reports whether the outcome is "completed normally".
func (o Outcome) zero() bool { return o == Outcome{} }

// failed reports whether the outcome should force tail retention.
func (o Outcome) failed() bool {
	return o.Error != "" || o.Aborted || o.Shed || o.Truncated || o.HTTPStatus >= 400
}

// Trace is one in-flight query trace rooted at a single span.
type Trace struct {
	tracer  *Tracer
	id      uint64
	sc      SpanContext // trace ID + root span ID + flags + tracestate
	remote  SpanID      // upstream parent span (zero when this is the root)
	root    *Span
	explain any

	outMu   sync.Mutex
	outcome Outcome
}

// Attach associates an explain report with the trace: EXPLAIN is a detail
// level of the trace, not a store of its own. The finished record carries
// it (TraceRecord.Explain), the tail sampler always keeps an explained
// trace, /debug/explain serves it from the kept traces, and a slow trace
// retains it in the slow-query log. No-op on a nil trace. Not safe for
// concurrent use with Finish.
func (tr *Trace) Attach(explain any) {
	if tr == nil {
		return
	}
	tr.explain = explain
}

// SetOutcome merges o into the trace's outcome (non-zero fields win; an
// error message is never overwritten by a later empty one). Safe for
// concurrent use; no-op on a nil trace.
func (tr *Trace) SetOutcome(o Outcome) {
	if tr == nil || o.zero() {
		return
	}
	tr.outMu.Lock()
	if o.Error != "" {
		tr.outcome.Error = o.Error
	}
	tr.outcome.Aborted = tr.outcome.Aborted || o.Aborted
	tr.outcome.Shed = tr.outcome.Shed || o.Shed
	tr.outcome.Truncated = tr.outcome.Truncated || o.Truncated
	if o.HTTPStatus != 0 {
		tr.outcome.HTTPStatus = o.HTTPStatus
	}
	tr.outMu.Unlock()
}

// CurrentOutcome returns the outcome accumulated so far.
func (tr *Trace) CurrentOutcome() Outcome {
	if tr == nil {
		return Outcome{}
	}
	tr.outMu.Lock()
	defer tr.outMu.Unlock()
	return tr.outcome
}

// StartTraceCtx begins a trace whose root span has the given name,
// adopting the trace context on ctx when one is present (the new root span
// becomes a child of the propagated remote span) and minting a fresh trace
// ID otherwise. The returned context carries both the live *Trace (see
// TraceFromContext — in-process joins open child spans on it) and the new
// SpanContext (cross-process propagation). A nil tracer returns (nil, ctx)
// so disabled tracing threads through untouched.
func (t *Tracer) StartTraceCtx(ctx context.Context, name string) (*Trace, context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil {
		return nil, ctx
	}
	sc := SpanContext{Flags: FlagSampled}
	var remote SpanID
	if parent, ok := spanContextFromContext(ctx); ok && parent.Valid() {
		sc.TraceID = parent.TraceID
		sc.Flags = parent.Flags | FlagSampled
		sc.State = parent.State
		remote = parent.SpanID
	} else {
		sc.TraceID = newTraceID()
	}
	sc.SpanID = newSpanID()
	tr := &Trace{
		tracer: t,
		id:     t.seq.Add(1),
		sc:     sc,
		remote: remote,
		root:   &Span{name: name, id: sc.SpanID, start: time.Now()},
	}
	ctx = contextWithSpanContext(ctx, sc)
	ctx = contextWithTrace(ctx, tr)
	return tr, ctx
}

// SpanContext returns the trace's propagated identity (trace ID, root span
// ID, flags, tracestate). Zero on a nil trace.
func (tr *Trace) SpanContext() SpanContext {
	if tr == nil {
		return SpanContext{}
	}
	return tr.sc
}

// TraceID returns the trace's W3C trace ID (zero on a nil trace).
func (tr *Trace) TraceID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.sc.TraceID
}

// Root returns the trace's root span (nil on a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Span opens a child span of the root (nil on a nil trace).
func (tr *Trace) Span(name string) *Span { return tr.Root().Child(name) }

// Annotate attaches a key/value pair to the root span.
func (tr *Trace) Annotate(key, value string) { tr.Root().Annotate(key, value) }

// Finish closes the root span and offers the trace to the tracer's tail
// sampler. Kept traces are committed to the ring buffer (evicting the
// oldest record when full) and offered to the slow-query log; sampled-out
// traces are counted and discarded. Without a
// sampler every trace is kept, and so is an explained one with one
// (KeepExplain). No-op on a nil trace.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.Finish()
	rec := tr.root.record()
	rec.ID = tr.id
	rec.TraceID = tr.sc.TraceID.String()
	rec.ParentSpanID = tr.remote.String()
	rec.Explain = tr.explain
	out := tr.CurrentOutcome()
	if !out.zero() {
		o := out // only a non-zero outcome is copied to the heap
		rec.Outcome = &o
	}
	tr.root.mu.Lock()
	d := tr.root.end.Sub(tr.root.start)
	tr.root.mu.Unlock()

	t := tr.tracer
	switch s := t.sampler.Load(); {
	case s == nil:
	case rec.Explain != nil:
		rec.KeepReason = KeepExplain
	default:
		keep, reason := s.Decide(tr.sc.TraceID, d, out)
		if !keep {
			return
		}
		rec.KeepReason = reason
	}
	t.ring.push(rec)
	if sl := t.slow.Load(); sl != nil {
		sl.Observe(rec, d)
	}
}

// Child opens a sub-span with a freshly minted span ID (nil-safe: a nil
// span returns a nil child).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, id: newSpanID(), start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Annotate attaches a key/value pair (no-op on a nil span).
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Finish stamps the span's end time (idempotent; no-op on a nil span).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SpanRecord is one frozen span.
type SpanRecord struct {
	Name string `json:"name"`
	// SpanID and ParentSpanID are the W3C identifiers linking this span
	// into its trace ("" when the span predates ID minting, e.g. records
	// deserialized from older snapshots).
	SpanID       string       `json:"span_id,omitempty"`
	ParentSpanID string       `json:"parent_span_id,omitempty"`
	Start        time.Time    `json:"start"`
	DurationMS   float64      `json:"duration_ms"`
	Attrs        []Attr       `json:"attrs,omitempty"`
	Children     []SpanRecord `json:"children,omitempty"`
}

// TraceRecord is one frozen trace.
type TraceRecord struct {
	// ID is the tracer-local sequence number (monotonic within a process).
	ID uint64 `json:"id"`
	// TraceID is the W3C trace identifier shared by every span ("" when
	// the trace predates ID minting).
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpanID is the remote parent adopted from an inbound
	// traceparent header ("" when this process started the trace).
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// KeepReason is why the tail sampler retained this trace ("" without a
	// sampler): "slow", "outcome", "explain" or "sampled".
	KeepReason string `json:"keep_reason,omitempty"`
	// Outcome is how the traced request ended (nil = completed normally).
	Outcome *Outcome   `json:"outcome,omitempty"`
	Root    SpanRecord `json:"root"`
	// Explain is the report attached with Trace.Attach (nil when the
	// request was not explained). It is served by /debug/explain and the
	// slow log, not inline in the trace's own JSON.
	Explain any `json:"-"`
}

// record freezes the span tree. Unfinished descendants are stamped with the
// commit time so durations are always well-defined.
func (s *Span) record() TraceRecord {
	return TraceRecord{Root: s.recordAt(time.Now(), SpanID{})}
}

func (s *Span) recordAt(now time.Time, parent SpanID) SpanRecord {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	rec := SpanRecord{
		Name:         s.name,
		SpanID:       s.id.String(),
		ParentSpanID: parent.String(),
		Start:        s.start,
		DurationMS:   float64(end.Sub(s.start)) / float64(time.Millisecond),
		Attrs:        append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	id := s.id
	s.mu.Unlock()
	for _, c := range children {
		rec.Children = append(rec.Children, c.recordAt(now, id))
	}
	return rec
}

// Snapshot returns the retained traces, most recent first. A nil tracer
// returns nil.
func (t *Tracer) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// ExplainEntry is one explain report served by /debug/explain.
type ExplainEntry struct {
	// ID is the sequence number of the kept trace that carries the report
	// (monotonically increasing).
	ID uint64 `json:"id"`
	// Time is when the explained request finished.
	Time time.Time `json:"time"`
	// Report is the explain payload (JSON-marshalable; the engine attaches
	// a *core.ExplainReport — obs stays dependency-free by holding any).
	Report any `json:"report"`
}

// Explains returns the reports attached to the retained traces, most
// recent first (nil when none).
func (t *Tracer) Explains() []ExplainEntry {
	var out []ExplainEntry
	for _, rec := range t.Snapshot() {
		if rec.Explain != nil {
			end := rec.Root.Start.Add(time.Duration(rec.Root.DurationMS * float64(time.Millisecond)))
			out = append(out, ExplainEntry{ID: rec.ID, Time: end, Report: rec.Explain})
		}
	}
	return out
}

// Find returns the most recent retained trace with the given W3C trace ID
// (the cross-surface join: the same ID works at /debug/traces and
// /debug/requests).
func (t *Tracer) Find(traceID string) (TraceRecord, bool) {
	if traceID == "" {
		return TraceRecord{}, false
	}
	for _, rec := range t.Snapshot() {
		if rec.TraceID == traceID {
			return rec, true
		}
	}
	return TraceRecord{}, false
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.ring.len()
}

// ---------------------------------------------------------------------------
// Context carrier for the live trace (in-process joins)

// traceKey carries the live *Trace through a request context.
type traceKey struct{}

// contextWithTrace returns ctx carrying the live trace (nil tr returns ctx
// unchanged).
func contextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFromContext returns the live trace on ctx (nil when none): the
// engine joins the HTTP layer's trace through this instead of starting its
// own root.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// spanKey carries the current live *Span through a request context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span (nil sp
// returns ctx unchanged). Child work opens sub-spans on it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span on ctx (nil when none — all
// Span methods are nil-safe, so callers annotate unconditionally).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
