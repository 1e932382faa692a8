package admit

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockController returns a traced controller whose only slot is held, plus
// the release func for the held slot.
func blockController(t *testing.T, maxQueue int, maxWait time.Duration, reqlog *obs.RequestLog) (*Controller, func()) {
	t.Helper()
	c := New(Options{MaxInFlight: 1, MaxQueue: maxQueue, MaxWait: maxWait}, nil)
	c.SetRequestLog(reqlog)
	c.SetTracer(obs.NewTracer(8))
	release, _, err := c.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, release
}

// TestMiddlewareShedResponseCarriesRequestID: a shed answer names its
// request by the one ID every record of it carries, the trace ID of the
// echoed traceparent.
func TestMiddlewareShedResponseCarriesRequestID(t *testing.T) {
	t.Parallel()
	reqlog := obs.NewRequestLog(8)
	c, release := blockController(t, 1, time.Minute, reqlog)
	// Occupy the single queue slot so the next request sheds with 429
	// immediately.
	waiting := make(chan struct{})
	go func() {
		rel, _, err := c.Acquire(nil)
		if err == nil {
			defer rel()
		}
		close(waiting)
	}()
	for c.Waiting() < 1 {
		time.Sleep(100 * time.Microsecond)
	}

	handler := Middleware(c, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("shed request reached the handler")
	}))
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v2/search?q=x", nil))

	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var shed ShedResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &shed); err != nil {
		t.Fatalf("parse shed body: %v", err)
	}
	sc, err := obs.ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil || shed.TraceID != sc.TraceID.String() {
		t.Errorf("shed trace_id %q, echoed traceparent %q (%v)", shed.TraceID, rr.Header().Get("traceparent"), err)
	}
	if _, ok := c.Tracer().Find(shed.TraceID); !ok {
		t.Errorf("no kept trace %s", shed.TraceID)
	}
	if shed.Error == "" {
		t.Error("shed response carries no error")
	}

	// The shed request must be resolvable as a wide event by its ID.
	ev, ok := reqlog.Find(shed.TraceID)
	if !ok {
		t.Fatalf("no wide event for shed request %s", shed.TraceID)
	}
	if ev.Op != "admission_shed" || ev.Abort != "queue_full" {
		t.Errorf("shed event = %+v, want op=admission_shed abort=queue_full", ev)
	}

	release()
	<-waiting
}

func TestMiddlewareWaitTimeoutShedEvent(t *testing.T) {
	t.Parallel()
	reqlog := obs.NewRequestLog(8)
	c, release := blockController(t, 4, 5*time.Millisecond, reqlog)
	defer release()

	handler := Middleware(c, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("timed-out request reached the handler")
	}))
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v2/search?q=x", nil))

	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rr.Code)
	}
	var shed ShedResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.QueueWaitMS <= 0 {
		t.Errorf("queue_wait_ms = %v, want > 0 for a timed-out wait", shed.QueueWaitMS)
	}
	ev, ok := reqlog.Find(shed.TraceID)
	if !ok || ev.Abort != "wait_timeout" {
		t.Errorf("wide event = %+v, %v; want abort=wait_timeout", ev, ok)
	}
	if ev.QueueWaitMS <= 0 {
		t.Errorf("wide event queue_wait_ms = %v", ev.QueueWaitMS)
	}
}

func TestMiddlewareAdmittedRequestCarriesID(t *testing.T) {
	t.Parallel()
	c := New(Options{MaxInFlight: 2}, nil)
	c.SetTracer(obs.NewTracer(8))
	var seenID string
	handler := Middleware(c, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = obs.TraceFromContext(r.Context()).TraceID().String()
	}))
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v2/search?q=x", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if seenID == "" {
		t.Fatal("handler saw no trace on the context")
	}
	if sc, err := obs.ParseTraceparent(rr.Header().Get("traceparent")); err != nil || sc.TraceID.String() != seenID {
		t.Errorf("echoed traceparent %q (%v) != context trace %s", rr.Header().Get("traceparent"), err, seenID)
	}
	if got := rr.Header().Get("X-Request-Id"); got != "" {
		t.Errorf("X-Request-Id %q echoed beside the traceparent", got)
	}
}

func TestControllerSaturated(t *testing.T) {
	t.Parallel()
	c := New(Options{MaxInFlight: 1, MaxQueue: 1, MaxWait: time.Minute}, nil)
	if c.Saturated() {
		t.Fatal("idle controller reports saturated")
	}
	release, _, err := c.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Saturated() {
		t.Fatal("slot held but queue empty: not saturated")
	}
	done := make(chan struct{})
	go func() {
		rel, _, err := c.Acquire(nil)
		if err == nil {
			rel()
		}
		close(done)
	}()
	for c.Waiting() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	if !c.Saturated() {
		t.Error("full slot + full queue should be saturated")
	}
	release()
	<-done
	if c.Saturated() {
		t.Error("drained controller still saturated")
	}

	var nilc *Controller
	if nilc.Saturated() {
		t.Error("nil controller saturated")
	}
	nilc.SetRequestLog(obs.NewRequestLog(1)) // must not panic
	if nilc.RequestLog() != nil {
		t.Error("nil controller has a request log")
	}
}
