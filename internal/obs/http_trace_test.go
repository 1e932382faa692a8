package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// traceHub returns a hub with one finished traced request whose trace ID,
// request ID and wide event all agree — the joined observability surface
// the cross-linked debug endpoints serve.
func traceHub(t *testing.T) (*Hub, string) {
	t.Helper()
	h := NewHub()
	sc, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := contextWithSpanContext(t.Context(), sc)
	tr, _ := h.Traces.StartTraceCtx(ctx, "similar_queries")
	tr.Annotate("request_id", "q-cross-1")
	tr.Span("index_search").Finish()
	tr.Finish()
	h.RequestLog().Record(WideEvent{
		RequestID: "q-cross-1", TraceID: sc.TraceID.String(), Op: "similar", Results: 5,
	})
	return h, sc.TraceID.String()
}

func TestDebugTracesLookupByID(t *testing.T) {
	t.Parallel()
	h, traceID := traceHub(t)
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	// ?id= resolves by trace ID and by request ID; ?trace= is an alias, so
	// either debug page's key pastes into the other.
	for _, path := range []string{
		"/debug/traces?id=" + traceID,
		"/debug/traces?trace=" + traceID,
		"/debug/traces?id=q-cross-1",
	} {
		code, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, code, body)
		}
		var rec TraceRecord
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			t.Fatalf("%s parse: %v", path, err)
		}
		if rec.TraceID != traceID || rec.Root.Name != "similar_queries" {
			t.Errorf("%s resolved %+v", path, rec)
		}
	}
	if code, body := get(t, srv, "/debug/traces?id=nope"); code != http.StatusNotFound {
		t.Errorf("missing trace status %d: %s", code, body)
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

	for _, path := range []string{
		"/debug/requests?trace=" + traceID,
		"/debug/requests?id=" + traceID,
		"/debug/requests?id=q-cross-1",
	} {
		code, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, code, body)
		}
		var ev WideEvent
		if err := json.Unmarshal([]byte(body), &ev); err != nil {
			t.Fatalf("%s parse: %v", path, err)
		}
		if ev.RequestID != "q-cross-1" || ev.TraceID != traceID {
			t.Errorf("%s resolved %+v", path, ev)
		}
	}
}

func TestOpenMetricsExemplars(t *testing.T) {
	t.Parallel()
	h := NewHub()
	hist := h.Registry().Histogram("req_seconds", "request latency", HistogramOpts{})
	hist.ObserveExemplar(0.005, "4bf92f3577b34da6a3ce929d0e0e4736")
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	// Classic 0.0.4 output is byte-compatible: no exemplars, no EOF marker.
	code, classic := get(t, srv, "/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("classic status %d", code)
	}
	if strings.Contains(classic, "trace_id") || strings.Contains(classic, "# EOF") {
		t.Error("classic exposition leaked OpenMetrics syntax")
	}

	code, om := get(t, srv, "/debug/metrics?format=openmetrics")
	if code != http.StatusOK {
		t.Fatalf("openmetrics status %d", code)
	}
	if !strings.HasSuffix(strings.TrimRight(om, "\n"), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
	var sawExemplar bool
	for _, line := range strings.Split(om, "\n") {
		if !strings.Contains(line, "_bucket") || !strings.Contains(line, "# {") {
			continue
		}
		sawExemplar = true
		if !strings.Contains(line, `trace_id="4bf92f3577b34da6a3ce929d0e0e4736"`) {
			t.Errorf("exemplar line missing trace_id: %s", line)
		}
	}
	if !sawExemplar {
		t.Error("no exemplar-carrying _bucket line in OpenMetrics output")
	}

	// Content negotiation via Accept also selects OpenMetrics.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/debug/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("Accept negotiation returned Content-Type %q", ct)
	}
}

func TestTimerObserveCtxLinksExemplar(t *testing.T) {
	t.Parallel()
	h := NewHub()
	tr, ctx := h.Traces.StartTraceCtx(t.Context(), "similar_queries")
	timer := h.Registry().Timer("op_seconds", "op latency")
	timer.ObserveCtx(ctx, 3*time.Millisecond)
	tr.Finish()

	snap := h.Registry().Snapshot()
	var found bool
	for _, hist := range snap.Histograms {
		if hist.Name != "op_seconds" {
			continue
		}
		for _, b := range hist.Buckets {
			if b.Exemplar != nil {
				found = true
				if b.Exemplar.TraceID != tr.TraceID().String() {
					t.Errorf("exemplar trace = %q, want %s", b.Exemplar.TraceID, tr.TraceID())
				}
			}
		}
	}
	if !found {
		t.Error("ObserveCtx stored no exemplar")
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
	ctx, rid, tr, owned := StartHTTPRequest(tc, w, r)
	if !owned || tr == nil || TraceFromContext(ctx) != tr || RequestIDFrom(ctx) != rid {
		t.Fatalf("fresh request: owned=%v trace=%v rid=%q", owned, tr, rid)
	}
	if got := tr.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID %s, want the inbound one", got)
	}
	if w.Header().Get("X-Request-Id") != rid || w.Header().Get("traceparent") != tr.SpanContext().Traceparent() {
		t.Errorf("headers %v", w.Header())
	}

	w2 := httptest.NewRecorder()
	_, rid2, joined, owned2 := StartHTTPRequest(tc, w2, r.WithContext(ctx))
	if owned2 || joined != tr || rid2 != rid || w2.Header().Get("traceparent") != "" {
		t.Errorf("nested call: owned=%v joined=%v rid=%q headers %v", owned2, joined == tr, rid2, w2.Header())
	}
	tr.Finish()
	if rec := tc.Snapshot()[0]; rec.Root.Name != "http_request" || rootAttr(rec, "request_id") != rid ||
		rootAttr(rec, "http_method") != http.MethodGet || rootAttr(rec, "http_path") != "/v2/search" {
		t.Errorf("root %+v", rec.Root)
	}
}
