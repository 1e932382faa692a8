package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/querylog"
)

// panicSearcher is an engine whose Query blows up after `after` calls.
type panicSearcher struct {
	*Engine
	after int
}

func (p *panicSearcher) Query(ctx context.Context, req Request) (*Response, error) {
	if p.after--; p.after < 0 {
		var idx []int
		_ = idx[3] // a bug, as a query would hit it: an index out of range
	}
	return p.Engine.Query(ctx, req)
}

// A panic inside one query answers that request with the structured 500 and
// leaves the server serving: the admission slot comes back, the panic is
// counted, the trace carries the stack — on the single-shot path and, once
// frames have been sent, as the stream's final error frame.
func TestV2SearchRecoversPanics(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 20, Config{Obs: hub}, 7)
	ac := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: 0}, hub.Registry())
	ac.SetTracer(hub.Tracer())
	panics := hub.Registry().Counter("engine_query_panics_total", "")

	bad := &panicSearcher{Engine: e}
	h := admit.Middleware(ac, V2SearchHandler(bad))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/search?q="+querylog.Cinema, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\n%s", rec.Code, rec.Body)
	}
	var env v2ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("500 body is not the error envelope: %v\n%s", err, rec.Body)
	}
	if env.Error == nil || env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "index out of range") ||
		env.TraceID == "" || !strings.HasPrefix(rec.Header().Get("traceparent"), "00-"+env.TraceID+"-") {
		t.Errorf("envelope = %+v (error %+v)", env, env.Error)
	}
	if got := panics.Value(); got != 1 {
		t.Errorf("engine_query_panics_total = %d, want 1", got)
	}
	if ac.InFlight() != 0 {
		t.Fatalf("admission slot still held after the panic: in flight %d", ac.InFlight())
	}
	trec, ok := hub.Tracer().Find(env.TraceID)
	if !ok {
		t.Fatal("the panicking request's trace was not kept")
	}
	if b, _ := json.Marshal(trec); !strings.Contains(string(b), "panic_stack") || !strings.Contains(string(b), "panicSearcher") {
		t.Errorf("trace does not carry the stack: %s", b)
	}

	// The one slot is free again: the same server answers the next request.
	good := admit.Middleware(ac, V2SearchHandler(e))
	if rec, resp := doV2(t, good, http.MethodGet, "/v2/search?q="+querylog.Cinema+"&k=3", ""); resp == nil || len(resp.Results) != 3 {
		t.Fatalf("request after the panic: status %d\n%s", rec.Code, rec.Body)
	}

	// Mid-stream: the first rung (64 nodes of a larger index) truncates and
	// is sent, the second panics. The frame already sent stands; the stream
	// ends with a final error frame.
	big, _ := buildEngine(t, 400, Config{Obs: hub}, 7)
	stream := admit.Middleware(ac, V2SearchHandler(&panicSearcher{Engine: big, after: 1}))
	srec := httptest.NewRecorder()
	stream.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/v2/search?q="+querylog.Cinema+"&stream=ndjson&max_nodes=100000", nil))
	frames := decodeSnapshots(t, srec.Body)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want a snapshot and an error frame\n%s", len(frames), srec.Body)
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Error == nil || last.Error.Code != "internal" || frames[0].Error != nil {
		t.Errorf("stream frames = %+v", frames)
	}
	if got := panics.Value(); got != 2 {
		t.Errorf("engine_query_panics_total = %d after the stream, want 2", got)
	}
	if ac.InFlight() != 0 {
		t.Fatalf("admission slot still held after the stream panic: in flight %d", ac.InFlight())
	}
}
