package admit

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestMiddlewareNilControllerPassesThrough(t *testing.T) {
	h := Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want passthrough", rec.Code)
	}
}

// TestMiddlewareShedsUnderSaturation drives the full shedding ladder: one
// request holds the only slot, one fills the queue (and is shed 503 after
// MaxWait), and the next overflows the queue for an immediate 429.
func TestMiddlewareShedsUnderSaturation(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 1, MaxWait: 30 * time.Millisecond}, nil)
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	h := Middleware(c, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-block
	}))

	serve := func() chan int {
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/search", nil))
			done <- rec.Code
		}()
		return done
	}

	first := serve()
	<-entered // first holds the slot

	queued := serve()
	waitFor(t, func() bool { return c.Waiting() == 1 })

	// Queue is now full: the next request is shed immediately with 429.
	overflow := httptest.NewRecorder()
	h.ServeHTTP(overflow, httptest.NewRequest(http.MethodGet, "/v2/search", nil))
	if overflow.Code != http.StatusTooManyRequests {
		t.Errorf("overflow status = %d, want 429", overflow.Code)
	}
	if overflow.Header().Get("Retry-After") == "" {
		t.Error("shed responses must carry Retry-After")
	}

	// The queued request times out after MaxWait with 503.
	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Errorf("queued status = %d, want 503", code)
	}

	close(block)
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request status = %d, want 200", code)
	}
	if c.InFlight() != 0 || c.Waiting() != 0 {
		t.Fatalf("leaked occupancy: inflight=%d waiting=%d", c.InFlight(), c.Waiting())
	}
}

// TestMiddlewarePropagatesQueueWait: a request admitted after queueing sees
// its wait on the context.
func TestMiddlewarePropagatesQueueWait(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 4, MaxWait: time.Second}, nil)
	block := make(chan struct{})
	entered := make(chan struct{}, 2)
	var mu sync.Mutex
	waits := []time.Duration{}
	h := Middleware(c, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		waits = append(waits, QueueWaitFrom(r.Context()))
		mu.Unlock()
		entered <- struct{}{}
		<-block
	}))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		}()
	}
	<-entered // first admitted instantly
	waitFor(t, func() bool { return c.Waiting() == 1 })
	close(block) // first finishes, the queued one is admitted
	<-entered
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("served %d requests, want 2", len(waits))
	}
	if waits[0] != 0 {
		t.Errorf("instant admission recorded wait %v, want 0", waits[0])
	}
	if waits[1] <= 0 {
		t.Errorf("queued admission recorded wait %v, want > 0", waits[1])
	}
}

func TestQueueWaitFromDefaults(t *testing.T) {
	if QueueWaitFrom(nil) != 0 { //nolint:staticcheck // nil ctx tolerated by design
		t.Error("nil ctx must report zero wait")
	}
	if QueueWaitFrom(context.Background()) != 0 {
		t.Error("unadorned ctx must report zero wait")
	}
	ctx := WithQueueWait(context.Background(), 5*time.Millisecond)
	if QueueWaitFrom(ctx) != 5*time.Millisecond {
		t.Error("round trip failed")
	}
}
