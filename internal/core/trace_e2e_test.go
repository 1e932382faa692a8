package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/querylog"
)

const (
	e2eTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	e2eTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	e2eParentSpan  = "00f067aa0ba902b7"
)

// findSpan depth-first searches a span tree by name.
func findSpan(sp obs.SpanRecord, name string) (obs.SpanRecord, bool) {
	if sp.Name == name {
		return sp, true
	}
	for _, c := range sp.Children {
		if found, ok := findSpan(c, name); ok {
			return found, true
		}
	}
	return obs.SpanRecord{}, false
}

// TestTracePipelineEndToEnd drives a traced request through the real stack
// — admission middleware, /v2/search, engine, index — and asserts the
// retained trace: adopted remote context, correct span parentage, non-zero
// durations, and a trace duration consistent with the wide event's.
func TestTracePipelineEndToEnd(t *testing.T) {
	t.Parallel()
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 365, 3)
	data := append(g.Exemplars(), g.Dataset(128)...)
	e, err := NewEngine(data, Config{Budget: 8, Workers: 4, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ac := admit.New(admit.Options{MaxInFlight: 4, MaxQueue: 4, MaxWait: time.Second}, hub.Registry())
	ac.SetTracer(hub.Traces)
	ac.SetRequestLog(hub.RequestLog())
	srv := httptest.NewServer(admit.Middleware(ac, V2SearchHandler(e)))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v2/search?q=cinema&k=3&mode=dtw&band=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", e2eTraceparent)
	req.Header.Set("tracestate", "vendor=abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// Propagation: the response echoes our trace with a fresh span ID, and
	// the body carries the trace ID clients join on.
	echoed := resp.Header.Get("traceparent")
	if !strings.HasPrefix(echoed, "00-"+e2eTraceID+"-") {
		t.Errorf("echoed traceparent %q does not carry trace %s", echoed, e2eTraceID)
	}
	if strings.Contains(echoed, e2eParentSpan) {
		t.Errorf("echoed traceparent %q reuses the caller's span ID", echoed)
	}
	if got := resp.Header.Get("tracestate"); got != "vendor=abc" {
		t.Errorf("tracestate not forwarded: %q", got)
	}
	var body V2Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != e2eTraceID {
		t.Errorf("body trace_id = %q, want %s", body.TraceID, e2eTraceID)
	}

	// Retention + structure: the finished trace is in the ring, parented
	// under the caller's span, with admission → query family → index phase.
	rec, ok := hub.Traces.Find(e2eTraceID)
	if !ok {
		t.Fatal("trace not retained in /debug/traces ring")
	}
	if rec.ParentSpanID != e2eParentSpan {
		t.Errorf("trace parent span = %q, want caller's %s", rec.ParentSpanID, e2eParentSpan)
	}
	if rec.Root.Name != "http_request" {
		t.Fatalf("root span = %q", rec.Root.Name)
	}
	for _, name := range []string{"admission", "similar_dtw", "dtw_cascade"} {
		sp, ok := findSpan(rec.Root, name)
		if !ok {
			t.Errorf("trace missing span %q", name)
			continue
		}
		if sp.DurationMS <= 0 {
			t.Errorf("span %q duration = %v, want > 0", name, sp.DurationMS)
		}
		if sp.SpanID == "" {
			t.Errorf("span %q has no span ID", name)
		}
	}
	// Every span links to its parent by span ID.
	fam, _ := findSpan(rec.Root, "similar_dtw")
	for child, parent := range map[string]obs.SpanRecord{"admission": rec.Root, "similar_dtw": rec.Root, "dtw_cascade": fam} {
		if sp, _ := findSpan(rec.Root, child); sp.ParentSpanID == "" || sp.ParentSpanID != parent.SpanID {
			t.Errorf("span %q parent = %q, want %q's %q", child, sp.ParentSpanID, parent.Name, parent.SpanID)
		}
	}

	// Unification: the wide event resolves by the trace ID and its duration
	// agrees with the family span's within 5%.
	ev, ok := hub.RequestLog().Find(e2eTraceID)
	if !ok {
		t.Fatal("wide event not resolvable by trace ID")
	}
	if diff := fam.DurationMS - ev.DurationMS; diff < 0 {
		diff = -diff
	} else if ev.DurationMS <= 0 {
		t.Fatalf("wide event duration = %v", ev.DurationMS)
	} else if diff > 0.05*ev.DurationMS {
		t.Errorf("family span %.4fms vs wide event %.4fms: diverge > 5%%", fam.DurationMS, ev.DurationMS)
	}
}

// TestBareHandlerOwnsTrace mounts /v2/search without the admission
// middleware: the handler itself must mint/adopt trace context, echo the
// traceparent, and stamp error outcomes so failed requests stay traceable.
func TestBareHandlerOwnsTrace(t *testing.T) {
	t.Parallel()
	hub := obs.NewHub()
	hub.Traces.SetSampler(obs.NewTailSampler(0, nil)) // only failures survive
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 5)
	e, err := NewEngine(g.Dataset(16), Config{Budget: 4, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(V2SearchHandler(e))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v2/search?q=no-such-series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	echoed := resp.Header.Get("traceparent")
	sc, err := obs.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("bare handler echoed invalid traceparent %q: %v", echoed, err)
	}
	rec, ok := hub.Traces.Find(sc.TraceID.String())
	if !ok {
		t.Fatal("404 trace was not tail-kept")
	}
	if rec.KeepReason != obs.KeepOutcome {
		t.Errorf("keep reason = %q, want %q", rec.KeepReason, obs.KeepOutcome)
	}
	if rec.Outcome == nil || rec.Outcome.HTTPStatus != http.StatusNotFound {
		t.Errorf("outcome = %+v, want HTTP 404", rec.Outcome)
	}
}
