package admit

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// queueWaitKey carries the admission queue wait through a request context.
type queueWaitKey struct{}

// WithQueueWait returns ctx annotated with the time a request spent queued
// for admission.
func WithQueueWait(ctx context.Context, wait time.Duration) context.Context {
	if wait <= 0 {
		return ctx
	}
	return context.WithValue(ctx, queueWaitKey{}, wait)
}

// QueueWaitFrom returns the admission queue wait recorded on ctx (0 when
// the request was admitted instantly or never went through Middleware).
func QueueWaitFrom(ctx context.Context) time.Duration {
	if ctx == nil {
		return 0
	}
	wait, _ := ctx.Value(queueWaitKey{}).(time.Duration)
	return wait
}

// ShedResponse is the JSON body of a 429/503 admission rejection. The
// trace ID (that of the echoed traceparent) lets a shed client's report be
// joined with the server-side wide event and trace at /debug/requests and
// /debug/traces, and queue_wait_ms shows how long the request sat queued
// before being turned away.
type ShedResponse struct {
	Error       string  `json:"error"`
	TraceID     string  `json:"trace_id,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// shedCause maps an Acquire failure onto a wide-event abort cause.
func shedCause(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrWaitTimeout):
		return "wait_timeout"
	default:
		return "canceled"
	}
}

// Middleware gates next behind the controller. Shed requests are answered
// without ever reaching next:
//
//	queue full            → 429 Too Many Requests
//	wait timed out        → 503 Service Unavailable (Retry-After: 1)
//	client context ended  → 503 Service Unavailable
//
// When SetTracer installed a tracer, Middleware is the trace root: it opens
// the "http_request" root through obs.StartHTTPRequest (inbound W3C
// `traceparent`/`tracestate` adopted or a fresh trace minted, `traceparent`
// echoed back) with an "admission" child covering the Acquire, and finishes
// the trace when the handler returns. The trace ID is the request's one
// identifier. Shed requests are answered with a ShedResponse body carrying
// it, recorded as an "admission_shed" wide event when SetRequestLog
// installed a log, and finish their trace with a Shed outcome, so the tail
// sampler always keeps them and 429/503s stay traceable. Admitted requests
// run with their queue wait and trace on the context (see QueueWaitFrom,
// obs.TraceFromContext), so handlers report admission latency in responses
// and traces. A nil controller passes everything through untouched.
func Middleware(c *Controller, next http.Handler) http.Handler {
	if c == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, tr, owned := obs.StartHTTPRequest(c.Tracer(), w, r)
		r = r.WithContext(ctx)
		start := time.Now()
		adm := tr.Span("admission")
		release, wait, err := c.Acquire(ctx)
		waitMS := float64(wait) / float64(time.Millisecond)
		adm.Annotate("queue_wait_ms", strconv.FormatFloat(waitMS, 'f', -1, 64))
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, ErrQueueFull) {
				code = http.StatusTooManyRequests
			}
			adm.Annotate("shed", shedCause(err))
			adm.Finish()
			tr.Annotate("queue_wait_ms", strconv.FormatFloat(waitMS, 'f', -1, 64))
			tr.SetOutcome(obs.Outcome{Shed: true, Error: err.Error(), HTTPStatus: code})
			if owned {
				tr.Finish()
			}
			traceID := tr.TraceID().String()
			c.RequestLog().Record(obs.WideEvent{
				TraceID:     traceID,
				Time:        start,
				Op:          "admission_shed",
				QueueWaitMS: waitMS,
				Abort:       shedCause(err),
				Error:       err.Error(),
			})
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(code)
			//nolint:errcheck // best-effort shed body
			json.NewEncoder(w).Encode(ShedResponse{
				Error: err.Error(), TraceID: traceID, QueueWaitMS: waitMS,
			})
			return
		}
		adm.Finish()
		defer release()
		if owned {
			defer tr.Finish()
		}
		if wait > 0 {
			tr.Annotate("queue_wait_ms", strconv.FormatFloat(waitMS, 'f', -1, 64))
			r = r.WithContext(WithQueueWait(r.Context(), wait))
		}
		next.ServeHTTP(w, r)
	})
}
