package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// traceHub returns a hub with one finished traced request whose trace and
// wide event share its trace ID — the joined observability surface the
// cross-linked debug endpoints serve.
func traceHub(t *testing.T) (*Hub, string) {
	t.Helper()
	h := NewHub()
	sc, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := contextWithSpanContext(t.Context(), sc)
	tr, _ := h.Traces.StartTraceCtx(ctx, "similar_queries")
	tr.Span("index_search").Finish()
	tr.Finish()
	h.RequestLog().Record(WideEvent{
		TraceID: sc.TraceID.String(), Op: "similar", Results: 5,
	})
	return h, sc.TraceID.String()
}

func TestDebugTracesLookupByID(t *testing.T) {
	t.Parallel()
	h, traceID := traceHub(t)
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	// ?id= takes the trace ID — the key /debug/requests takes too, so
	// either debug page's key pastes into the other. No other parameter
	// names a request.
	code, body := get(t, srv, "/debug/traces?id="+traceID)
	if code != http.StatusOK {
		t.Fatalf("?id= status %d: %s", code, body)
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if rec.TraceID != traceID || rec.Root.Name != "similar_queries" {
		t.Errorf("?id= resolved %+v", rec)
	}
	if code, body := get(t, srv, "/debug/traces?id=nope"); code != http.StatusNotFound {
		t.Errorf("missing trace status %d: %s", code, body)
	}
	// ?trace= is not a lookup: it gets the listing.
	code, body = get(t, srv, "/debug/traces?trace="+traceID)
	var list []TraceRecord
	if err := json.Unmarshal([]byte(body), &list); code != http.StatusOK || err != nil {
		t.Errorf("?trace= status %d, %v: %s", code, err, body)
	}
}

func TestDebugTracesStats(t *testing.T) {
	t.Parallel()
	h, _ := traceHub(t)
	h.Traces.SetSampler(NewTailSampler(0.25, nil))
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	code, body := get(t, srv, "/debug/traces?stats=1")
	if code != http.StatusOK {
		t.Fatalf("?stats=1 status %d", code)
	}
	var stats struct {
		Kept    int          `json:"kept"`
		Sampler SamplerStats `json:"sampler"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 1 || stats.Sampler.Fraction != 0.25 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDebugRequestsResolvesByTraceID(t *testing.T) {
	t.Parallel()
	h, traceID := traceHub(t)
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	code, body := get(t, srv, "/debug/requests?id="+traceID)
	if code != http.StatusOK {
		t.Fatalf("?id= status %d: %s", code, body)
	}
	var ev WideEvent
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if ev.TraceID != traceID || ev.Op != "similar" {
		t.Errorf("?id= resolved %+v", ev)
	}
}

// TestStartHTTPRequest covers both callers' cases of the one place an
// "http_request" root is opened: a fresh request adopts the inbound
// traceparent and owns the root; a request whose context already carries a
// trace joins it and owns nothing.
func TestStartHTTPRequest(t *testing.T) {
	t.Parallel()
	tc := NewTracer(4)
	r := httptest.NewRequest(http.MethodGet, "/v2/search?q=x", nil)
	r.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	ctx, tr, owned := StartHTTPRequest(tc, w, r)
	if !owned || tr == nil || TraceFromContext(ctx) != tr {
		t.Fatalf("fresh request: owned=%v trace=%v", owned, tr)
	}
	if got := tr.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID %s, want the inbound one", got)
	}
	// The echoed traceparent is the only identity header.
	if len(w.Header()) != 1 || w.Header().Get("traceparent") != tr.SpanContext().Traceparent() {
		t.Errorf("headers %v", w.Header())
	}

	w2 := httptest.NewRecorder()
	_, joined, owned2 := StartHTTPRequest(tc, w2, r.WithContext(ctx))
	if owned2 || joined != tr || len(w2.Header()) != 0 {
		t.Errorf("nested call: owned=%v joined=%v headers %v", owned2, joined == tr, w2.Header())
	}
	tr.Finish()
	if rec := tc.Snapshot()[0]; rec.Root.Name != "http_request" ||
		rootAttr(rec, "http_method") != http.MethodGet || rootAttr(rec, "http_path") != "/v2/search" {
		t.Errorf("root %+v", rec.Root)
	}
}
