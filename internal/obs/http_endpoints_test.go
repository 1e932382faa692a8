package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDebugRequestsEndpoint(t *testing.T) {
	t.Parallel()
	h := NewHub()
	h.RequestLog().Record(WideEvent{TraceID: "t-aa-1", Op: "similar", Results: 5})
	h.RequestLog().Record(WideEvent{TraceID: "t-aa-2", Op: "linear", Results: 3})
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	code, body := get(t, srv, "/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests status %d", code)
	}
	var events []WideEvent
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(events) != 2 || events[0].TraceID != "t-aa-2" {
		t.Fatalf("events = %+v, want 2 most-recent-first", events)
	}

	code, body = get(t, srv, "/debug/requests?n=1")
	if err := json.Unmarshal([]byte(body), &events); err != nil || len(events) != 1 {
		t.Fatalf("?n=1 returned %d events (%v)", len(events), err)
	}

	code, body = get(t, srv, "/debug/requests?id=t-aa-1")
	if code != http.StatusOK {
		t.Fatalf("?id= status %d", code)
	}
	var ev WideEvent
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatalf("parse single: %v", err)
	}
	if ev.Op != "similar" || ev.Results != 5 {
		t.Errorf("resolved event = %+v", ev)
	}

	code, body = get(t, srv, "/debug/requests?id=t-missing")
	if code != http.StatusNotFound {
		t.Fatalf("missing id status %d, want 404: %s", code, body)
	}
	var errBody map[string]string
	if err := json.Unmarshal([]byte(body), &errBody); err != nil || errBody["error"] == "" {
		t.Errorf("404 body should be JSON with an error field: %s", body)
	}
}

func TestDebugHealthzEndpoint(t *testing.T) {
	t.Parallel()
	h := NewHub()
	healthy := true
	h.SetHealthChecks(
		HealthCheck{Name: "always-ok", Probe: func() error { return nil }},
		HealthCheck{Name: "toggle", Probe: func() error {
			if !healthy {
				return errors.New("saturated")
			}
			return nil
		}},
	)
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	code, body := get(t, srv, "/debug/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy status %d: %s", code, body)
	}
	var rep struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.Checks["toggle"] != "ok" {
		t.Errorf("healthy report = %+v", rep)
	}

	healthy = false
	code, body = get(t, srv, "/debug/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy status %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "unavailable" || rep.Checks["toggle"] != "saturated" || rep.Checks["always-ok"] != "ok" {
		t.Errorf("unhealthy report = %+v", rep)
	}
}

// TestDebugJSONContentTypeConsistency pins the satellite contract: every
// JSON debug endpoint serves the identical Content-Type, including non-200
// responses.
func TestDebugJSONContentTypeConsistency(t *testing.T) {
	t.Parallel()
	h := NewHub()
	h.RequestLog().Record(WideEvent{TraceID: "t-ct-1"})
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	const want = "application/json; charset=utf-8"
	for _, path := range []string{
		"/debug/vars",
		"/debug/traces",
		"/debug/requests",
		"/debug/requests?id=t-ct-1",
		"/debug/requests?id=t-nope", // 404 path
		"/debug/healthz",
		"/debug/explain",
		"/debug/explain/last", // 404 path
		"/debug/slow",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != want {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, want)
		}
	}
}

func TestHubAccessorsNilSafe(t *testing.T) {
	t.Parallel()
	var h *Hub
	if h.RequestLog() != nil {
		t.Error("nil hub request log should be nil")
	}
	if h.HealthChecks() != nil {
		t.Error("nil hub health checks should be nil")
	}
	h.SetHealthChecks(HealthCheck{Name: "x", Probe: func() error { return nil }}) // must not panic
}
