package obs

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net/http"
	"strings"
)

// This file implements the W3C Trace Context wire format
// (https://www.w3.org/TR/trace-context/): parsing and minting of the
// `traceparent` header, opaque passthrough of `tracestate`, and the
// context.Context carriers that thread a SpanContext from the HTTP edge
// through Engine.Query into every span the engine opens.

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// distributed trace. The all-zero value is invalid on the wire.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier. The all-zero value is
// invalid on the wire.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form ("" for the zero ID, so
// JSON omitempty elides unset IDs).
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// String returns the 16-char lowercase hex form ("" for the zero ID).
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// FlagSampled is the traceparent trace-flags bit meaning "the caller
// recorded this trace". Tail-based sampling decides retention at trace end
// regardless, but the bit is propagated and echoed per the spec.
const FlagSampled byte = 0x01

// SpanContext is the propagated identity of one span: which trace it
// belongs to, which span is the current parent, the W3C trace flags, and
// the opaque tracestate list entries (carried verbatim, never interpreted).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
	State   string
}

// Valid reports whether both IDs are non-zero (the W3C validity rule).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the version-00 wire form
// "00-<trace-id>-<parent-id>-<flags>" ("" for an invalid context).
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(sc.TraceID[:]), hex.EncodeToString(sc.SpanID[:]), sc.Flags)
}

// Traceparent parse errors. All wrap ErrTraceparent so callers can treat
// "any malformed header" uniformly while tests pin the specific cause.
var (
	ErrTraceparent        = errors.New("obs: malformed traceparent")
	errTraceparentLen     = fmt.Errorf("%w: bad length", ErrTraceparent)
	errTraceparentVersion = fmt.Errorf("%w: bad version", ErrTraceparent)
	errTraceparentHex     = fmt.Errorf("%w: non-hex field", ErrTraceparent)
	errTraceparentZeroID  = fmt.Errorf("%w: all-zero id", ErrTraceparent)
	errTraceparentDashes  = fmt.Errorf("%w: bad field separators", ErrTraceparent)
)

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00    -  32 lowhex -   16 lowhex -   2 lowhex
//
// Per the spec: version 0xff is invalid; an unknown (future) version is
// accepted if its first four fields parse as version-00 fields and any
// extra content starts with "-"; all-zero trace or parent IDs are
// rejected; uppercase hex is rejected (the spec mandates lowercase).
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, errTraceparentLen
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, errTraceparentDashes
	}
	version, ok := hexByte(h[0:2])
	if !ok {
		return sc, errTraceparentHex
	}
	if version == 0xff {
		return sc, errTraceparentVersion
	}
	if version == 0 && len(h) != 55 {
		// Version 00 has exactly four fields.
		return sc, errTraceparentLen
	}
	if version > 0 && len(h) > 55 && h[55] != '-' {
		// A future version may append fields, but only after a separator.
		return sc, errTraceparentLen
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil || !isLowerHex(h[3:35]) {
		return SpanContext{}, errTraceparentHex
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil || !isLowerHex(h[36:52]) {
		return SpanContext{}, errTraceparentHex
	}
	flags, ok := hexByte(h[53:55])
	if !ok {
		return SpanContext{}, errTraceparentHex
	}
	sc.Flags = flags
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, errTraceparentZeroID
	}
	return sc, nil
}

// hexByte decodes exactly two lowercase hex digits.
func hexByte(s string) (byte, bool) {
	if len(s) != 2 || !isLowerHex(s) {
		return 0, false
	}
	var b [1]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0, false
	}
	return b[0], true
}

// isLowerHex reports whether s contains only [0-9a-f] (the spec forbids
// uppercase in traceparent fields).
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// maxTracestateLen bounds the opaque tracestate we retain and re-emit; the
// spec allows receivers to discard oversized lists.
const maxTracestateLen = 512

// sanitizeTracestate validates a tracestate header for passthrough: the
// value is kept verbatim when it is printable ASCII within the retention
// bound, and dropped ("") otherwise. The list entries are never parsed —
// this system only forwards other tracers' state.
func sanitizeTracestate(s string) string {
	s = strings.TrimSpace(s)
	if s == "" || len(s) > maxTracestateLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return ""
		}
	}
	return s
}

// newTraceID mints a random non-zero trace ID. IDs come from math/rand/v2's
// process-seeded generator: minting must stay cheap on the serving hot
// path, and trace IDs need uniqueness, not unpredictability.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		hi, lo := mrand.Uint64(), mrand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (8 * (7 - i)))
			t[8+i] = byte(lo >> (8 * (7 - i)))
		}
	}
	return t
}

// newSpanID mints a random non-zero span ID.
func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := mrand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * (7 - i)))
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Context carriers

// spanContextKey carries the propagated (remote or current) SpanContext.
type spanContextKey struct{}

// contextWithTraceparent parses inbound traceparent/tracestate header
// values and returns ctx carrying the remote trace context. A missing or
// malformed traceparent leaves ctx unchanged (the spec says restart the
// trace rather than fail the request); tracestate rides along only when
// the traceparent was valid.
func contextWithTraceparent(ctx context.Context, traceparent, tracestate string) context.Context {
	sc, err := ParseTraceparent(strings.TrimSpace(traceparent))
	if err != nil {
		return ctx
	}
	sc.State = sanitizeTracestate(tracestate)
	return contextWithSpanContext(ctx, sc)
}

// StartHTTPRequest opens the record of one HTTP request at the serving
// edge — the one place an "http_request" trace root is started. Its trace
// ID is the request's one identifier. When r's context already carries a
// live trace it joins that trace and reports owned=false: an outer layer
// (admission control) owns the root. Otherwise it adopts the inbound W3C
// `traceparent`/`tracestate` headers (a missing or malformed traceparent
// mints a fresh trace), opens the "http_request" root under them annotated
// with the HTTP method and path, echoes `traceparent` (and `tracestate`)
// on the response, and reports owned=true: the caller stamps the outcome
// and Finishes the trace. With a nil tracer the trace is nil (every Trace
// method is a no-op on it) and the request has no ID.
func StartHTTPRequest(t *Tracer, w http.ResponseWriter, r *http.Request) (ctx context.Context, tr *Trace, owned bool) {
	ctx = r.Context()
	if tr = TraceFromContext(ctx); tr != nil {
		return ctx, tr, false
	}
	ctx = contextWithTraceparent(ctx, r.Header.Get("traceparent"), r.Header.Get("tracestate"))
	if tr, ctx = t.StartTraceCtx(ctx, "http_request"); tr == nil {
		return ctx, nil, false
	}
	tr.Annotate("http_method", r.Method)
	tr.Annotate("http_path", r.URL.Path)
	sc := tr.SpanContext()
	w.Header().Set("traceparent", sc.Traceparent())
	if sc.State != "" {
		w.Header().Set("tracestate", sc.State)
	}
	return ctx, tr, true
}

// contextWithSpanContext returns ctx carrying sc as the current trace
// context. Invalid contexts are not stored.
func contextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanContextKey{}, sc)
}

// spanContextFromContext returns the trace context carried by ctx (zero
// value + false when none).
func spanContextFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(spanContextKey{}).(SpanContext)
	return sc, ok
}
