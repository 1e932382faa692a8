package core

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/querylog"
)

var (
	traceIDField = regexp.MustCompile(`"trace_id":\s*"([^"]*)"`)
	schemaField  = regexp.MustCompile(`"schema_version":\s*(\d+)`)
)

// eventually polls f until it holds or two seconds pass: the admission
// middleware finishes a request's trace after the handler has written the
// answer, so a client can read the answer before the trace is kept.
func eventually(f func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if f() || time.Now().After(deadline) {
			return f()
		}
	}
}

// TestOneIDEndToEnd serves /v2/search as cmd/s2 does — behind admission
// control, with the hub's tracer, tail sampler and request log installed,
// beside the /debug surface — and holds every kind of answer to one ID: the
// single-shot, NDJSON and SSE answers, the 400, 404 and 500 envelopes and
// the 429 and 503 sheds all carry the trace ID of the echoed traceparent in
// every trace_id they have, /debug/requests?id= and /debug/traces?id= both
// resolve it, no body or header names a request_id or X-Request-Id, and
// every v2 body is schema_version 4.
func TestOneIDEndToEnd(t *testing.T) {
	hub := obs.NewHub()
	hub.Traces.SetSampler(obs.NewTailSampler(1, hub.Slow))
	e, _ := buildEngine(t, 30, Config{Obs: hub}, 1)
	ac := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: 1, MaxWait: 500 * time.Millisecond}, hub.Registry())
	ac.SetRequestLog(hub.RequestLog())
	ac.SetTracer(hub.Traces)
	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: admit.Middleware(ac, V2SearchHandler(e))},
		obs.Route{Pattern: "/panicking/v2/search", Handler: admit.Middleware(ac, V2SearchHandler(&panicSearcher{Engine: e}))}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}
	check := func(name, path string, status int, v2 bool) {
		t.Helper()
		resp, body := get(path)
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, status, body)
			return
		}
		sc, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if err != nil {
			t.Errorf("%s: echoed traceparent %q: %v", name, resp.Header.Get("traceparent"), err)
			return
		}
		id := sc.TraceID.String()
		ids := traceIDField.FindAllStringSubmatch(body, -1)
		if len(ids) == 0 {
			t.Errorf("%s: no trace_id in the body: %s", name, body)
		}
		for _, m := range ids {
			if m[1] != id {
				t.Errorf("%s: body trace_id %q, traceparent's %q", name, m[1], id)
			}
		}
		if strings.Contains(body, "request_id") || resp.Header.Get("X-Request-Id") != "" {
			t.Errorf("%s: a second ID on the wire: %v %s", name, resp.Header, body)
		}
		if v2 {
			versions := schemaField.FindAllStringSubmatch(body, -1)
			if len(versions) == 0 {
				t.Errorf("%s: no schema_version in the body: %s", name, body)
			}
			for _, m := range versions {
				if m[1] != "4" {
					t.Errorf("%s: schema_version %s, want 4", name, m[1])
				}
			}
		}
		for _, debug := range []string{"/debug/requests?id=", "/debug/traces?id="} {
			if !eventually(func() bool { r, _ := get(debug + id); return r.StatusCode == http.StatusOK }) {
				t.Errorf("%s: %s%s does not resolve", name, debug, id)
			}
		}
	}

	q := "/v2/search?q=" + querylog.Cinema + "&k=3"
	check("single-shot", q, http.StatusOK, true)
	check("ndjson", q+"&stream=ndjson", http.StatusOK, true)
	check("sse", q+"&stream=sse", http.StatusOK, true)
	check("400", "/v2/search?k=3", http.StatusBadRequest, true)
	check("404", "/v2/search?q=no-such-query", http.StatusNotFound, true)
	check("500", "/panicking"+q, http.StatusInternalServerError, true)

	// Hold the only slot: the next request queues and times out (503); with
	// a second one queued as well, the next is turned away at once (429).
	release, _, err := ac.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check("503", q, http.StatusServiceUnavailable, false)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if rel, _, err := ac.Acquire(context.Background()); err == nil {
			rel()
		}
	}()
	for ac.Waiting() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	check("429", q, http.StatusTooManyRequests, false)
	release()
	<-queued
}

// hangupSearcher is an engine whose first query stops on its budget, so a
// progressive answer goes on to a second rung, and whose later queries wait
// for the client to go away (ten seconds at most) before they run.
type hangupSearcher struct {
	*Engine
	calls atomic.Int32
}

func (h *hangupSearcher) Query(ctx context.Context, req Request) (*Response, error) {
	first := h.calls.Add(1) == 1
	if !first {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
	}
	resp, err := h.Engine.Query(ctx, req)
	if first && err == nil {
		resp.Truncated = true
	}
	return resp, err
}

// A client that hangs up in the middle of an NDJSON or SSE answer ends the
// request: the handler returns promptly, and the request's trace is kept
// under the trace_id of the frame the client read, with an aborted outcome,
// beside a wide event saying the request was canceled.
func TestV2StreamClientDisconnect(t *testing.T) {
	for _, stream := range []string{"ndjson", "sse"} {
		t.Run(stream, func(t *testing.T) {
			hub := obs.NewHub()
			hub.Traces.SetSampler(obs.NewTailSampler(0, hub.Slow)) // keep only what went wrong
			e, _ := buildEngine(t, 30, Config{Obs: hub}, 1)
			ac := admit.New(admit.Options{MaxInFlight: 4}, hub.Registry())
			ac.SetRequestLog(hub.RequestLog())
			ac.SetTracer(hub.Traces)
			h := admit.Middleware(ac, V2SearchHandler(&hangupSearcher{Engine: e}))
			returned := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				defer close(returned)
				h.ServeHTTP(w, r)
			}))
			defer srv.Close()

			resp, err := srv.Client().Get(srv.URL + "/v2/search?q=" + querylog.Cinema + "&k=3&stream=" + stream)
			if err != nil {
				t.Fatal(err)
			}
			// Read the first frame: one NDJSON line, or one SSE event up to
			// its blank line.
			br := bufio.NewReader(resp.Body)
			var data string
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					t.Fatalf("reading the first frame: %v", err)
				}
				line = strings.TrimSpace(line)
				if stream == "ndjson" {
					data = line
					break
				}
				if d, ok := strings.CutPrefix(line, "data: "); ok {
					data = d
				} else if line == "" && data != "" {
					break
				}
			}
			var snap V2Snapshot
			if err := json.Unmarshal([]byte(data), &snap); err != nil || snap.Final {
				t.Fatalf("first frame %q: %v, final %v", data, err, snap.Final)
			}
			sc, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
			if err != nil || snap.TraceID != sc.TraceID.String() {
				t.Fatalf("frame trace_id %q, echoed traceparent %q (%v)", snap.TraceID, resp.Header.Get("traceparent"), err)
			}
			resp.Body.Close() // hang up mid-stream

			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("handler still running 5 s after the client hung up")
			}
			rec, ok := hub.Traces.Find(snap.TraceID)
			if !ok || rec.Outcome == nil || !rec.Outcome.Aborted {
				t.Errorf("trace %s: kept %v, outcome %+v; want kept with an aborted outcome", snap.TraceID, ok, rec.Outcome)
			}
			if ev, ok := hub.RequestLog().Find(snap.TraceID); !ok || ev.Abort != "canceled" {
				t.Errorf("wide event %+v, %v; want abort canceled", ev, ok)
			}
		})
	}
}
