package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/vptree"
)

// V2SchemaVersion is the schema_version stamped on every /v2/search
// response, snapshot frame and error envelope.
const V2SchemaVersion = 4

// UnboundedGap is the JSON sentinel for an unbounded bound_gap (+Inf is not
// representable in JSON): the search stopped with no quality guarantee.
const UnboundedGap = -1

// V2Request is the decoded wire request of /v2/search. GET requests carry
// it as query parameters, POST as a JSON body with exactly these
// (snake_case) field names. DecodeV2Request produces it.
type V2Request struct {
	// Query is the indexed series to search for (parameter q).
	Query string `json:"q"`
	// K is how many results to return (default 5).
	K int `json:"k"`
	// Mode is the search family: similar (default), linear, dtw, periods
	// or qbb.
	Mode string `json:"mode"`
	// Window selects the burst database for qbb: short (default) or long.
	Window string `json:"window,omitempty"`
	// Band is the Sakoe–Chiba radius for dtw (-1 = default 7).
	Band int `json:"band,omitempty"`
	// Periods (days) focuses mode=periods; RelTol is the relative bin
	// tolerance (0 = default 0.05). The GET parameter is period=7,30.
	Periods []float64 `json:"periods,omitempty"`
	RelTol  float64   `json:"rel_tol,omitempty"`
	// DeadlineMS / MaxNodes / MaxExact are the work budget (see Budget).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MaxNodes   int   `json:"max_nodes,omitempty"`
	MaxExact   int   `json:"max_exact,omitempty"`
	// Epsilon, Delta and NProbe are the quality dial (see Approx).
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	NProbe  int     `json:"nprobe,omitempty"`
	// Stream selects progressive answering: "" (single JSON response),
	// "ndjson" (one snapshot per line) or "sse" (Server-Sent Events).
	Stream string `json:"stream,omitempty"`
}

// Approx extracts the request's quality dial.
func (v V2Request) Approx() Approx {
	return Approx{Epsilon: v.Epsilon, Delta: v.Delta, NProbe: v.NProbe}
}

// Budget extracts the request's work budget.
func (v V2Request) Budget() Budget {
	return Budget{
		Deadline:          time.Duration(v.DeadlineMS) * time.Millisecond,
		MaxNodeVisits:     v.MaxNodes,
		MaxExactDistances: v.MaxExact,
	}
}

// V2Error is the structured error of the v2 contract: a stable machine-
// readable code plus a human-readable message, wrapped in the envelope
// {"schema_version":3,"trace_id":...,"error":{...}}.
//
// Codes (docs/api.md#errors):
//
//	invalid_argument    malformed or out-of-range parameter, or    (400;
//	                    periods no bin lies near (ErrBadPeriods)   413 for a POST
//	                                                               body over 1 MiB)
//	invalid_approx      inconsistent quality dial (ε<0, δ>1, ...)  (400)
//	unknown_query       q does not name an indexed series          (404)
//	method_not_allowed  verb other than GET or POST                (405)
//	aborted             client hung up / context expired           (503)
//	internal            engine failure                             (500)
type V2Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *V2Error) Error() string { return e.Code + ": " + e.Message }

func v2Errorf(status int, code, format string, args ...any) *V2Error {
	return &V2Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// v2Modes and v2Streams are the closed enums of the v2 contract.
var v2Modes = map[string]bool{"similar": true, "linear": true, "dtw": true, "periods": true, "qbb": true}
var v2Streams = map[string]bool{"": true, "ndjson": true, "sse": true}

// DecodeV2Request decodes and validates one /v2/search request: GET
// parameters from rawQuery, or a POST JSON body. It is a pure function of
// its inputs (no I/O, never panics) so it can be fuzzed directly
// (FuzzV2Decode). Mutually inconsistent quality parameters come back as a
// structured invalid_approx error — the handler's 400, never a 500.
func DecodeV2Request(method, rawQuery string, body []byte) (V2Request, *V2Error) {
	vq := V2Request{K: 5, Mode: "similar", Band: -1}
	switch method {
	case http.MethodGet:
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return vq, v2Errorf(http.StatusBadRequest, "invalid_argument", "malformed query string: %v", err)
		}
		if ve := vq.fromParams(q); ve != nil {
			return vq, ve
		}
	case http.MethodPost:
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&vq); err != nil {
			return vq, v2Errorf(http.StatusBadRequest, "invalid_argument", "malformed JSON body: %v", err)
		}
		if dec.More() {
			return vq, v2Errorf(http.StatusBadRequest, "invalid_argument", "trailing data after JSON body")
		}
		if vq.Mode == "" {
			vq.Mode = "similar"
		}
	default:
		return vq, v2Errorf(http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST")
	}
	return vq, vq.validate()
}

// fromParams fills vq from GET query parameters.
func (v *V2Request) fromParams(q url.Values) *V2Error {
	v.Query = q.Get("q")
	v.Mode = q.Get("mode")
	if v.Mode == "" {
		v.Mode = "similar"
	}
	v.Window = q.Get("window")
	v.Stream = q.Get("stream")
	intField := func(key string, dst *int) *V2Error {
		if s := q.Get(key); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return v2Errorf(http.StatusBadRequest, "invalid_argument", "%s must be an integer", key)
			}
			*dst = n
		}
		return nil
	}
	floatField := func(key string, dst *float64) *V2Error {
		if s := q.Get(key); s != "" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return v2Errorf(http.StatusBadRequest, "invalid_argument", "%s must be a number", key)
			}
			*dst = f
		}
		return nil
	}
	var deadline int
	for _, ve := range []*V2Error{
		intField("k", &v.K), intField("band", &v.Band),
		intField("deadline_ms", &deadline), intField("max_nodes", &v.MaxNodes),
		intField("max_exact", &v.MaxExact), intField("nprobe", &v.NProbe),
		floatField("rel_tol", &v.RelTol), floatField("epsilon", &v.Epsilon),
		floatField("delta", &v.Delta),
	} {
		if ve != nil {
			return ve
		}
	}
	v.DeadlineMS = int64(deadline)
	if s := q.Get("period"); s != "" {
		ps, err := parsePeriods(s)
		if err != nil {
			return v2Errorf(http.StatusBadRequest, "invalid_argument", "%v", err)
		}
		v.Periods = ps
	}
	return nil
}

// parsePeriods parses the comma-separated period list of mode=periods.
func parsePeriods(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad period %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// validate applies the v2 contract's range checks.
func (v V2Request) validate() *V2Error {
	if v.Query == "" {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "missing q parameter")
	}
	if v.K < 1 {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "k must be >= 1")
	}
	if !v2Modes[v.Mode] {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "mode must be similar, linear, dtw, periods or qbb")
	}
	switch v.Window {
	case "", "short", "long":
	default:
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "window must be short or long")
	}
	if !v2Streams[v.Stream] {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "stream must be ndjson or sse")
	}
	if v.Band < -1 {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "band must be a non-negative integer")
	}
	if v.RelTol < 0 || math.IsNaN(v.RelTol) || math.IsInf(v.RelTol, 0) {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "rel_tol must be a positive number")
	}
	if v.DeadlineMS < 0 {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "deadline_ms must be >= 0")
	}
	if v.MaxNodes < 0 || v.MaxExact < 0 {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "max_nodes and max_exact must be >= 0")
	}
	if v.Mode == "periods" && len(v.Periods) == 0 {
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "mode=periods requires a period parameter (comma-separated days)")
	}
	for _, p := range v.Periods {
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return v2Errorf(http.StatusBadRequest, "invalid_argument", "bad period %v", p)
		}
	}
	if err := v.Approx().Validate(); err != nil {
		return v2Errorf(http.StatusBadRequest, "invalid_approx", "%v", errors.Unwrap(err))
	}
	return nil
}

// V2Result is one neighbour or burst match on the v2 wire.
type V2Result struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Dist is the distance (similar/linear/dtw/periods modes).
	Dist float64 `json:"dist,omitempty"`
	// Score is the BSim similarity (qbb mode).
	Score float64 `json:"score,omitempty"`
	// BoundGap is the proven upper bound on this result's relative error
	// (0 = exact, -1 = unbounded). See Neighbor.BoundGap.
	BoundGap float64 `json:"bound_gap"`
}

// V2Response is the single-shot JSON body of /v2/search (schema_version 3).
// TraceID, the trace ID of the echoed traceparent, is the request's one
// identifier: /debug/requests?id= and /debug/traces?id= resolve it.
type V2Response struct {
	SchemaVersion int    `json:"schema_version"`
	TraceID       string `json:"trace_id,omitempty"`
	Query         string `json:"query"`
	ID            int    `json:"id"`
	Mode          string `json:"mode"`
	K             int    `json:"k"`
	Window        string `json:"window,omitempty"`
	// Truncated: a work budget expired and Results is best-so-far.
	Truncated bool `json:"truncated"`
	// Approximate, EpsilonUsed and BoundFloor report the quality dial's
	// outcome (see Response); per-result tightness is each Result's
	// bound_gap (-1 = unbounded).
	Approximate bool          `json:"approximate"`
	EpsilonUsed float64       `json:"epsilon_used,omitempty"`
	BoundFloor  float64       `json:"bound_floor,omitempty"`
	ElapsedMS   float64       `json:"elapsed_ms"`
	QueueWaitMS float64       `json:"queue_wait_ms,omitempty"`
	Results     []V2Result    `json:"results"`
	Stats       *vptree.Stats `json:"stats,omitempty"`
}

// V2Snapshot is one progressive frame: the current merged top-k plus the
// work and quality evidence at emit time. Frames are monotone
// non-worsening (results only gain members or improve ranks) and the last
// frame carries final=true.
type V2Snapshot struct {
	SchemaVersion int     `json:"schema_version"`
	Seq           int     `json:"seq"`
	Final         bool    `json:"final"`
	TraceID       string  `json:"trace_id,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Truncated     bool    `json:"truncated"`
	Approximate   bool    `json:"approximate"`
	// BoundGap is the worst per-result bound gap in this frame (-1 =
	// unbounded: the frame's coverage carries no proven floor yet).
	BoundGap float64    `json:"bound_gap"`
	Results  []V2Result `json:"results"`
	// Error terminates an errored stream (last frame only).
	Error *V2Error `json:"error,omitempty"`
}

// v2ErrorEnvelope is the non-stream error body.
type v2ErrorEnvelope struct {
	SchemaVersion int      `json:"schema_version"`
	TraceID       string   `json:"trace_id,omitempty"`
	Error         *V2Error `json:"error"`
}

// jsonGap maps a bound gap onto its JSON representation (-1 for +Inf).
func jsonGap(g float64) float64 {
	if math.IsInf(g, 1) {
		return UnboundedGap
	}
	return g
}

// maxV2Body is the largest POST body /v2/search reads.
const maxV2Body = 1 << 20

// V2SearchHandler serves the search contract at /v2/search, the one search
// route: every search family, the work budget, the quality dial (epsilon,
// delta, nprobe) and progressive answering (stream=ndjson|sse). GET carries
// parameters in the query string, POST as a JSON body (V2Request). The
// handler accepts any Searcher, so one mount serves a single engine or the
// sharded scatter-gather engine unchanged. The request's context flows into
// the engine, so a client hanging up aborts the search mid-traversal; when
// mounted behind admit.Middleware the time spent queued for admission is
// reported as queue_wait_ms.
//
// Trace contract: when the middleware already owns an "http_request" trace
// on the context, the handler (and engine) join it; when mounted bare, the
// handler opens that root itself through the same obs.StartHTTPRequest and
// finishes it. Either way every terminal path — 400, 404,
// 413, 500, 503, success — stamps the trace's outcome, so error responses
// are tail-kept and traceable, and the response body carries trace_id, the
// request's one identifier. A request answered with an error before any
// query ran (a refused request, or a panic) leaves its one wide event
// through recordHTTPError; every other request's comes from the Envelope.
// See docs/api.md.
//
// A panic anywhere below — decode, the engine, an index, encode — is one
// request's failure, not the process's: it is recovered into the structured
// 500 `internal` body (or, once a stream has begun, a final error frame),
// with the stack on the request's trace, and counted in
// engine_query_panics_total. The admission slot is released by the
// middleware's own defer as the handler returns.
func V2SearchHandler(e Searcher) http.Handler {
	var panics *obs.Counter
	var reqlog *obs.RequestLog
	if h, ok := e.(interface{ Hub() *obs.Hub }); ok {
		panics = h.Hub().Registry().Counter("engine_query_panics_total", "panics recovered while serving /v2/search")
		reqlog = h.Hub().RequestLog()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, tr, owned := obs.StartHTTPRequest(e.Tracer(), w, r)
		if owned {
			defer tr.Finish()
		}
		var srv *v2server
		fail := func(ve *V2Error) {
			tr.SetOutcome(obs.Outcome{Error: ve.Message, HTTPStatus: ve.Status})
			if srv == nil || !srv.ran {
				recordHTTPError(reqlog, tr, start, ve)
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(ve.Status)
			json.NewEncoder(w).Encode(v2ErrorEnvelope{ //nolint:errcheck
				SchemaVersion: V2SchemaVersion, TraceID: tr.TraceID().String(), Error: ve,
			})
		}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p) // net/http's own signal to drop the connection
			}
			panics.Inc()
			tr.Annotate("panic_stack", string(debug.Stack()))
			ve := v2Errorf(http.StatusInternalServerError, "internal", "panic: %v", p)
			if srv != nil && srv.seq > 0 {
				tr.SetOutcome(obs.Outcome{Error: ve.Message, HTTPStatus: ve.Status})
				srv.emit(&V2Snapshot{Final: true, Error: ve})
				return
			}
			fail(ve)
		}()
		var body []byte
		if r.Method == http.MethodPost {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxV2Body))
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				fail(v2Errorf(http.StatusRequestEntityTooLarge, "invalid_argument", "body exceeds 1 MiB"))
				return
			}
			if err != nil {
				fail(v2Errorf(http.StatusBadRequest, "invalid_argument", "reading body: %v", err))
				return
			}
		}
		vq, ve := DecodeV2Request(r.Method, r.URL.RawQuery, body)
		if ve != nil {
			fail(ve)
			return
		}
		id, ok := e.Lookup(vq.Query)
		if !ok {
			fail(v2Errorf(http.StatusNotFound, "unknown_query", "unknown query %q", vq.Query))
			return
		}
		req := buildV2CoreRequest(vq, id)
		req.QueueWait = admit.QueueWaitFrom(r.Context())
		srv = &v2server{e: e, w: w, tr: tr, vq: vq, req: req, id: id, start: time.Now()}
		if vq.Stream == "" {
			srv.serveSingle(ctx, fail)
			return
		}
		srv.serveProgressive(ctx, fail)
	})
}

// buildV2CoreRequest maps the decoded wire request for sequence id onto a
// core.Request. Every mode searches by ID, so no answer holds the query
// itself.
func buildV2CoreRequest(vq V2Request, id int) Request {
	req := Request{ID: id, K: vq.K, Budget: vq.Budget(), Approx: vq.Approx()}
	switch vq.Mode {
	case "similar":
		req.Kind = KindSimilarID
	case "linear":
		req.Kind = KindLinear
	case "dtw":
		req.Kind, req.Band = KindDTW, 7
		if vq.Band >= 0 {
			req.Band = vq.Band
		}
	case "periods":
		req.Kind, req.Periods, req.RelTol = KindSimilarPeriods, vq.Periods, vq.RelTol
	case "qbb":
		req.Kind = KindBurstID
		if vq.Window == "long" {
			req.Window = Long
		}
	}
	return req
}

// v2server carries one request's state across the single-shot and
// progressive paths.
type v2server struct {
	e     Searcher
	w     http.ResponseWriter
	tr    *obs.Trace
	vq    V2Request
	req   Request
	id    int
	start time.Time
	// seq counts the frames a progressive response has emitted.
	seq int
	// ran is set once a query has returned: its Envelope has recorded the
	// request's wide event.
	ran bool
}

// queryError classifies an engine error for the v2 taxonomy.
func queryError(err error) *V2Error {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return v2Errorf(http.StatusServiceUnavailable, "aborted", "%v", err)
	case errors.Is(err, ErrBadApprox):
		return v2Errorf(http.StatusBadRequest, "invalid_approx", "%v", err)
	case errors.Is(err, ErrBadPeriods):
		return v2Errorf(http.StatusBadRequest, "invalid_argument", "%v", err)
	default:
		return v2Errorf(http.StatusInternalServerError, "internal", "%v", err)
	}
}

// results maps a core response onto wire results, with bound gaps encoded
// for JSON.
func (s *v2server) results(out *Response) []V2Result {
	res := make([]V2Result, 0, len(out.Neighbors)+len(out.Matches))
	for _, n := range out.Neighbors {
		res = append(res, V2Result{ID: n.ID, Name: n.Name, Dist: n.Dist, BoundGap: jsonGap(n.BoundGap)})
	}
	for _, m := range out.Matches {
		res = append(res, V2Result{ID: m.ID, Name: m.Name, Score: m.Score})
	}
	return res
}

func (s *v2server) serveSingle(ctx context.Context, fail func(*V2Error)) {
	out, err := s.e.Query(ctx, s.req)
	s.ran = true
	if err != nil {
		ve := queryError(err)
		s.tr.SetOutcome(obs.Outcome{Aborted: ve.Code == "aborted"})
		fail(ve)
		return
	}
	resp := &V2Response{
		SchemaVersion: V2SchemaVersion,
		TraceID:       s.tr.TraceID().String(),
		Query:         s.vq.Query, ID: s.id, Mode: s.vq.Mode, K: s.vq.K,
		Truncated:   out.Truncated,
		Approximate: out.Approximate,
		EpsilonUsed: out.EpsilonUsed,
		BoundFloor:  out.BoundFloor,
		ElapsedMS:   float64(time.Since(s.start)) / float64(time.Millisecond),
		QueueWaitMS: float64(s.req.QueueWait) / float64(time.Millisecond),
		Results:     s.results(out),
	}
	if s.vq.Mode == "qbb" {
		resp.Window = s.req.Window.String()
	}
	if s.vq.Mode == "similar" {
		st := out.Stats
		resp.Stats = &st
	}
	s.w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // best-effort debug output
}

// progressiveLadder builds the geometric row budgets (max_nodes) the
// progressive path re-queries under: 64, ×8, ... capped by the caller's
// own max_nodes (its final rung), or climbing to an unlimited final rung
// (0) when the caller set none. At least one rung always precedes the
// final frame, so every stream carries ≥ 2 snapshots.
func progressiveLadder(maxNodes int) []int {
	const base, factor = 64, 8
	var rungs []int
	for r := base; maxNodes <= 0 || r < maxNodes; r *= factor {
		rungs = append(rungs, r)
		if r > (1<<30)/factor {
			break
		}
	}
	if maxNodes > 0 {
		return append(rungs, maxNodes)
	}
	return append(rungs, 0)
}

// v2merge accumulates progressive snapshots into a monotone top-k: the
// union of every rung's results keyed by ID (distances are exact at every
// rung, so a re-discovered ID carries the same distance), ranked in the
// canonical (dist, ID) — or for bursts (score desc, ID) — order and
// truncated to k. Union + canonical rank makes each frame non-worsening
// by construction, even under ε-relaxation where a later rung's raw
// result list may drop a neighbour an earlier rung had found.
type v2merge struct {
	k     int
	burst bool
	seen  map[int]V2Result
}

func newV2Merge(k int, burst bool) *v2merge {
	return &v2merge{k: k, burst: burst, seen: make(map[int]V2Result)}
}

func (m *v2merge) add(rs []V2Result) {
	for _, r := range rs {
		m.seen[r.ID] = r
	}
}

func (m *v2merge) top() []V2Result {
	out := make([]V2Result, 0, len(m.seen))
	for _, r := range m.seen {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if m.burst {
			if out[a].Score != out[b].Score {
				return out[a].Score > out[b].Score
			}
			return out[a].ID < out[b].ID
		}
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].ID < out[b].ID
	})
	if len(out) > m.k {
		out = out[:m.k]
	}
	return out
}

// emit writes one frame of a progressive response and flushes it.
func (s *v2server) emit(snap *V2Snapshot) {
	sse := s.vq.Stream == "sse"
	snap.SchemaVersion = V2SchemaVersion
	s.seq++
	snap.Seq = s.seq
	snap.TraceID = s.tr.TraceID().String()
	snap.ElapsedMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	if sse {
		event := "snapshot"
		if snap.Error != nil {
			event = "error"
		} else if snap.Final {
			event = "final"
		}
		fmt.Fprintf(s.w, "event: %s\ndata: ", event)
	}
	json.NewEncoder(s.w).Encode(snap) //nolint:errcheck // stream best-effort
	if sse {
		io.WriteString(s.w, "\n") //nolint:errcheck
	}
	if flusher, ok := s.w.(http.Flusher); ok {
		flusher.Flush()
	}
}

func (s *v2server) serveProgressive(ctx context.Context, fail func(*V2Error)) {
	sse := s.vq.Stream == "sse"
	if sse {
		s.w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
		s.w.Header().Set("Cache-Control", "no-cache")
	} else {
		s.w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	}
	merge := newV2Merge(s.vq.K, s.vq.Mode == "qbb")
	// snapshot builds a frame from the merged state plus the latest rung's
	// evidence. The frame-wide bound gap is recomputed from the latest
	// rung's proven floor — the most-refined coverage so far. A rung that
	// stopped on its node budget alone proves nothing about what it never
	// visited, so its frames report an unbounded gap until the ladder
	// completes (or the caller's own approximation floor takes over).
	snapshot := func(out *Response, final bool) *V2Snapshot {
		rs := merge.top()
		gap := 0.0
		if out.Truncated && !final {
			gap = UnboundedGap
		} else if out.Truncated || out.Approximate {
			floor := out.BoundFloor
			if !out.Approximate {
				floor = 0
			}
			gap = UnboundedGap
			if floor > 0 {
				gap = 0
				for i := range rs {
					rs[i].BoundGap = jsonGap(boundGap(rs[i].Dist, floor))
					if rs[i].BoundGap > gap {
						gap = rs[i].BoundGap
					}
				}
			}
		}
		if gap == UnboundedGap && !merge.burst {
			for i := range rs {
				rs[i].BoundGap = UnboundedGap
			}
		}
		return &V2Snapshot{
			Final:     final,
			Truncated: out.Truncated, Approximate: out.Approximate || (out.Truncated && !final),
			BoundGap: gap, Results: rs,
		}
	}
	ladder := progressiveLadder(s.vq.MaxNodes)
	var last *Response
	for _, rung := range ladder {
		rreq := s.req
		rreq.Budget.MaxNodeVisits = rung
		out, err := s.e.Query(ctx, rreq)
		s.ran = true
		if err != nil {
			ve := queryError(err)
			s.tr.SetOutcome(obs.Outcome{Error: ve.Message, HTTPStatus: ve.Status})
			if s.seq == 0 && !sse {
				// Nothing streamed yet: a plain structured error is still
				// possible on the NDJSON path (headers carry the stream
				// content type, the body a single error frame).
				s.w.WriteHeader(ve.Status)
			}
			s.emit(&V2Snapshot{Final: true, Error: ve, Results: merge.top()})
			return
		}
		merge.add(s.results(out))
		last = out
		if !out.Truncated || rung == ladder[len(ladder)-1] {
			break // complete, or the caller's own budget: the next frame is final
		}
		s.emit(snapshot(out, false))
	}
	final := snapshot(last, true)
	if s.seq == 0 {
		// The first rung already completed the search: emit its snapshot
		// as a non-final frame first so every stream has ≥ 2 frames — the
		// progressive contract clients can rely on.
		pre := *final
		pre.Final = false
		s.emit(&pre)
	}
	s.emit(final)
	if final.Truncated {
		s.tr.SetOutcome(obs.Outcome{Truncated: true})
	}
}
