package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/querylog"
)

func doV2(t *testing.T, h http.Handler, method, url string, body string) (*httptest.ResponseRecorder, *V2Response) {
	t.Helper()
	rec := httptest.NewRecorder()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, url, rd)
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp V2Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func TestV2DecodeDefaults(t *testing.T) {
	vq, ve := DecodeV2Request(http.MethodGet, "q=cinema", nil)
	if ve != nil {
		t.Fatalf("decode: %v", ve)
	}
	if vq.Query != "cinema" || vq.K != 5 || vq.Mode != "similar" || vq.Band != -1 {
		t.Errorf("defaults: %+v", vq)
	}
	vq, ve = DecodeV2Request(http.MethodPost, "", []byte(`{"q":"cinema"}`))
	if ve != nil {
		t.Fatalf("POST decode: %v", ve)
	}
	if vq.K != 5 || vq.Mode != "similar" {
		t.Errorf("POST defaults: %+v", vq)
	}
}

// TestV2DecodeGETAndPOSTAgree: the same parameters decode to the same
// V2Request, or the same error, whether they come as a GET query string or
// a POST JSON body — a zero or negative k is refused both ways, not served
// as the default by one of them.
func TestV2DecodeGETAndPOSTAgree(t *testing.T) {
	for _, c := range []struct {
		name, get, post string
		code            string // "" = accepted
	}{
		{"k absent", "q=a", `{"q":"a"}`, ""},
		{"k zero", "q=a&k=0", `{"q":"a","k":0}`, "invalid_argument"},
		{"k negative", "q=a&k=-1", `{"q":"a","k":-1}`, "invalid_argument"},
		{"k set", "q=a&k=3", `{"q":"a","k":3}`, ""},
		{"mode absent", "q=a", `{"q":"a"}`, ""},
		{"mode empty", "q=a&mode=", `{"q":"a","mode":""}`, ""},
		{"band absent", "q=a&mode=dtw", `{"q":"a","mode":"dtw"}`, ""},
		{"band zero", "q=a&mode=dtw&band=0", `{"q":"a","mode":"dtw","band":0}`, ""},
	} {
		g, gerr := DecodeV2Request(http.MethodGet, c.get, nil)
		p, perr := DecodeV2Request(http.MethodPost, "", []byte(c.post))
		code := func(ve *V2Error) string {
			if ve == nil {
				return ""
			}
			return ve.Code
		}
		if code(gerr) != c.code || code(perr) != c.code {
			t.Errorf("%s: GET error %v, POST error %v; want code %q both ways", c.name, gerr, perr, c.code)
			continue
		}
		if c.code == "" && !reflect.DeepEqual(g, p) {
			t.Errorf("%s: GET decodes to %+v, POST to %+v", c.name, g, p)
		}
	}
}

func TestV2DecodeErrors(t *testing.T) {
	cases := []struct {
		name, method, raw, body string
		status                  int
		code                    string
	}{
		{"missing q", http.MethodGet, "", "", 400, "invalid_argument"},
		{"bad k", http.MethodGet, "q=a&k=zero", "", 400, "invalid_argument"},
		{"k below 1", http.MethodGet, "q=a&k=0", "", 400, "invalid_argument"},
		{"bad mode", http.MethodGet, "q=a&mode=psychic", "", 400, "invalid_argument"},
		{"bad window", http.MethodGet, "q=a&mode=qbb&window=medium", "", 400, "invalid_argument"},
		{"bad stream", http.MethodGet, "q=a&stream=grpc", "", 400, "invalid_argument"},
		{"periods without period", http.MethodGet, "q=a&mode=periods", "", 400, "invalid_argument"},
		{"negative deadline", http.MethodGet, "q=a&deadline_ms=-1", "", 400, "invalid_argument"},
		{"non-integer max_nodes", http.MethodGet, "q=a&max_nodes=zero", "", 400, "invalid_argument"},
		{"negative epsilon", http.MethodGet, "q=a&epsilon=-0.5", "", 400, "invalid_approx"},
		{"epsilon NaN", http.MethodGet, "q=a&epsilon=NaN", "", 400, "invalid_approx"},
		{"delta above one", http.MethodGet, "q=a&delta=1.5", "", 400, "invalid_approx"},
		{"negative nprobe", http.MethodGet, "q=a&nprobe=-2", "", 400, "invalid_approx"},
		{"bad verb", http.MethodDelete, "q=a", "", 405, "method_not_allowed"},
		{"bad JSON", http.MethodPost, "", "{", 400, "invalid_argument"},
		{"unknown field", http.MethodPost, "", `{"q":"a","quality":9}`, 400, "invalid_argument"},
		{"trailing data", http.MethodPost, "", `{"q":"a"} {}`, 400, "invalid_argument"},
		{"POST bad delta", http.MethodPost, "", `{"q":"a","delta":-0.1}`, 400, "invalid_approx"},
	}
	for _, c := range cases {
		_, ve := DecodeV2Request(c.method, c.raw, []byte(c.body))
		if ve == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if ve.Status != c.status || ve.Code != c.code {
			t.Errorf("%s: got %d/%s, want %d/%s (%s)", c.name, ve.Status, ve.Code, c.status, c.code, ve.Message)
		}
	}
}

func TestV2SearchSchema(t *testing.T) {
	e, _ := buildEngine(t, 30, Config{Obs: obs.NewHub()}, 1)
	h := V2SearchHandler(e)

	rec, resp := doV2(t, h, http.MethodGet, "/v2/search?q="+querylog.Cinema+"&k=3", "")
	if resp == nil {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.SchemaVersion != V2SchemaVersion {
		t.Errorf("schema_version = %d, want %d", resp.SchemaVersion, V2SchemaVersion)
	}
	if resp.Mode != "similar" || resp.K != 3 || len(resp.Results) != 3 {
		t.Errorf("mode=%q k=%d results=%d", resp.Mode, resp.K, len(resp.Results))
	}
	if resp.Approximate || resp.EpsilonUsed != 0 {
		t.Errorf("exact query stamped approximate=%v eps=%v", resp.Approximate, resp.EpsilonUsed)
	}
	for _, r := range resp.Results {
		if r.BoundGap != 0 {
			t.Errorf("exact result %d carries bound_gap %v", r.ID, r.BoundGap)
		}
	}
	if resp.TraceID == "" || !strings.HasPrefix(rec.Header().Get("traceparent"), "00-"+resp.TraceID+"-") {
		t.Errorf("trace_id %q does not match the echoed traceparent %q", resp.TraceID, rec.Header().Get("traceparent"))
	}
	if resp.Stats == nil {
		t.Error("similar mode must report index stats")
	}
	if resp.Truncated {
		t.Error("unbudgeted search reported truncated")
	}
	id, _ := e.Lookup(querylog.Cinema)
	for _, r := range resp.Results {
		if r.ID == id {
			t.Error("self returned as its own neighbour")
		}
	}

	// POST body form of the same request answers identically.
	_, post := doV2(t, h, http.MethodPost, "/v2/search",
		`{"q":"`+querylog.Cinema+`","k":3}`)
	if post == nil {
		t.Fatal("POST failed")
	}
	if len(post.Results) != len(resp.Results) {
		t.Fatalf("POST results = %d, GET = %d", len(post.Results), len(resp.Results))
	}
	for i := range post.Results {
		if post.Results[i] != resp.Results[i] {
			t.Errorf("result %d: POST %+v vs GET %+v", i, post.Results[i], resp.Results[i])
		}
	}
}

func TestV2SearchModes(t *testing.T) {
	e, _ := buildEngine(t, 30, Config{}, 2)
	h := V2SearchHandler(e)
	for _, url := range []string{
		"/v2/search?q=" + querylog.Cinema + "&mode=linear&k=3",
		"/v2/search?q=" + querylog.Cinema + "&mode=dtw&k=2&band=5",
		"/v2/search?q=" + querylog.Cinema + "&mode=periods&k=3&period=7",
		"/v2/search?q=" + querylog.Cinema + "&mode=qbb&window=long&k=3",
	} {
		rec, resp := doV2(t, h, http.MethodGet, url, "")
		if resp == nil {
			t.Errorf("%s: status %d: %s", url, rec.Code, rec.Body.String())
			continue
		}
		if len(resp.Results) == 0 && resp.Mode != "qbb" {
			t.Errorf("%s: no results", url)
		}
		id, _ := e.Lookup(querylog.Cinema)
		for _, r := range resp.Results {
			if r.ID == id {
				t.Errorf("%s: self returned as its own neighbour", url)
			}
		}
	}
}

func TestV2SearchErrors(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 3)
	h := V2SearchHandler(e)
	cases := []struct {
		url    string
		status int
		code   string
	}{
		{"/v2/search", 400, "invalid_argument"}, // missing q
		{"/v2/search?q=no-such-query-anywhere", 404, "unknown_query"},
		{"/v2/search?q=" + querylog.Cinema + "&epsilon=-1", 400, "invalid_approx"},
		{"/v2/search?q=" + querylog.Cinema + "&delta=2", 400, "invalid_approx"},
		{"/v2/search?q=" + querylog.Cinema + "&mode=nope", 400, "invalid_argument"},
		// Finite and positive, so the decoder passes it; no bin lies near it.
		{"/v2/search?q=" + querylog.Cinema + "&mode=periods&period=0.001", 400, "invalid_argument"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.url, rec.Code, c.status, rec.Body.String())
			continue
		}
		var env struct {
			SchemaVersion int      `json:"schema_version"`
			Error         *V2Error `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: bad error envelope: %v", c.url, err)
			continue
		}
		if env.SchemaVersion != V2SchemaVersion || env.Error == nil || env.Error.Code != c.code {
			t.Errorf("%s: envelope %+v, want code %s", c.url, env, c.code)
		}
	}
}

func TestV2SearchRejectsOtherVerbs(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 4)
	rec := httptest.NewRecorder()
	V2SearchHandler(e).ServeHTTP(rec,
		httptest.NewRequest(http.MethodDelete, "/v2/search?q="+querylog.Cinema, nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d, want 405", rec.Code)
	}
}

func TestV2SearchBudgetTruncation(t *testing.T) {
	e, _ := buildEngine(t, 40, Config{Workers: 1}, 4)
	rec, resp := doV2(t, V2SearchHandler(e), http.MethodGet,
		"/v2/search?q="+querylog.Cinema+"&mode=linear&k=3&max_nodes=5", "")
	if resp == nil {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Truncated {
		t.Error("5-row budget over a 40+-series scan must truncate")
	}
}

func TestV2SearchReportsQueueWait(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 5)
	req := httptest.NewRequest(http.MethodGet, "/v2/search?q="+querylog.Cinema, nil)
	req = req.WithContext(admit.WithQueueWait(req.Context(), 5*time.Millisecond))
	rec := httptest.NewRecorder()
	V2SearchHandler(e).ServeHTTP(rec, req)
	var resp V2Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.QueueWaitMS != 5 {
		t.Errorf("queue_wait_ms = %v, want 5", resp.QueueWaitMS)
	}
}

// TestV2SearchUnderSaturation is the end-to-end admission acceptance
// criterion: with the handler mounted behind the middleware, saturation
// sheds 429/503.
func TestV2SearchUnderSaturation(t *testing.T) {
	e, _ := buildEngine(t, 20, Config{Obs: nil}, 7)
	ac := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: 1, MaxWait: 20 * time.Millisecond}, nil)
	release, _, err := ac.Acquire(httptest.NewRequest(http.MethodGet, "/", nil).Context())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	h := admit.Middleware(ac, V2SearchHandler(e))

	// The slot is held externally; this request queues and times out: 503.
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/search?q="+querylog.Cinema, nil))
	}()
	// Wait until it occupies the queue, then overflow it: 429.
	deadline := time.Now().Add(2 * time.Second)
	for ac.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	over := httptest.NewRecorder()
	h.ServeHTTP(over, httptest.NewRequest(http.MethodGet, "/v2/search?q="+querylog.Cinema, nil))
	if over.Code != http.StatusTooManyRequests {
		t.Errorf("overflow status = %d, want 429", over.Code)
	}
	<-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("queued status = %d, want 503", rec.Code)
	}
}

// A POST body is read up to 1 MiB: at the limit it is served, one byte over
// it is refused with 413 and the invalid_argument envelope — never cut short
// and then misparsed.
func TestV2SearchBodyLimit(t *testing.T) {
	e, _ := buildEngine(t, 10, Config{}, 8)
	h := V2SearchHandler(e)
	body := `{"q":"` + querylog.Cinema + `","k":2}`
	atLimit := body + strings.Repeat(" ", maxV2Body-len(body))
	if rec, resp := doV2(t, h, http.MethodPost, "/v2/search", atLimit); resp == nil || len(resp.Results) != 2 {
		t.Fatalf("1 MiB body: status %d: %.200s", rec.Code, rec.Body.String())
	}
	for name, over := range map[string]string{
		"valid JSON padded past the limit": atLimit + " ",
		"garbage after the limit":          atLimit + "}",
	} {
		rec, _ := doV2(t, h, http.MethodPost, "/v2/search", over)
		var env struct {
			Error *V2Error `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: bad envelope: %v", name, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || env.Error == nil ||
			env.Error.Code != "invalid_argument" || env.Error.Message != "body exceeds 1 MiB" {
			t.Errorf("%s: status %d, error %+v; want 413 invalid_argument", name, rec.Code, env.Error)
		}
	}
}

// decodeSnapshots parses an NDJSON stream body into frames.
func decodeSnapshots(t *testing.T, body *bytes.Buffer) []V2Snapshot {
	t.Helper()
	var snaps []V2Snapshot
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var s V2Snapshot
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad snapshot line %q: %v", line, err)
		}
		snaps = append(snaps, s)
	}
	return snaps
}

func TestV2ProgressiveNDJSON(t *testing.T) {
	e, _ := buildEngine(t, 40, Config{}, 5)
	h := V2SearchHandler(e)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v2/search?q="+querylog.Cinema+"&k=3&stream=ndjson", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("Content-Type = %q", ct)
	}
	snaps := decodeSnapshots(t, rec.Body)
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots, progressive contract requires >= 2", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Error("last frame not final")
	}
	if last.Truncated {
		t.Error("unbudgeted progressive query ended truncated")
	}
	for i, s := range snaps {
		if s.Seq != i+1 {
			t.Errorf("frame %d has seq %d", i, s.Seq)
		}
		if s.Final != (i == len(snaps)-1) {
			t.Errorf("frame %d final=%v", i, s.Final)
		}
		if s.SchemaVersion != V2SchemaVersion {
			t.Errorf("frame %d schema_version %d", i, s.SchemaVersion)
		}
	}
}

func TestV2ProgressiveSSE(t *testing.T) {
	e, _ := buildEngine(t, 40, Config{}, 6)
	h := V2SearchHandler(e)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v2/search?q="+querylog.Cinema+"&k=3&stream=sse", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: snapshot\n") {
		t.Error("no snapshot event in SSE stream")
	}
	if !strings.Contains(body, "event: final\n") {
		t.Error("no final event in SSE stream")
	}
	// Every data: payload must decode as a V2Snapshot.
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s V2Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
			t.Fatalf("bad SSE data line: %v\n%s", err, line)
		}
		n++
	}
	if n < 2 {
		t.Errorf("only %d SSE data frames", n)
	}
}

// Property (c) of docs/approx.md: progressive snapshots are monotone
// non-worsening — across consecutive frames, the result at every held rank
// never gets worse, and results are never lost below k.
func TestV2ProgressiveMonotone(t *testing.T) {
	e, _ := buildEngine(t, 60, Config{Budget: 8}, 7)
	h := V2SearchHandler(e)
	queries := []string{querylog.Cinema, querylog.Halloween, querylog.Easter}
	trial := 0
	for _, q := range queries {
		// Tight node budgets force many truncated rungs; the ladder then
		// emits one frame per rung.
		for _, mn := range []int{70, 200, 1000, 0} {
			trial++
			url := "/v2/search?q=" + q + "&k=5&stream=ndjson"
			if mn > 0 {
				url += "&max_nodes=" + strconv.Itoa(mn)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("trial %d (%s): status %d: %s", trial, url, rec.Code, rec.Body.String())
			}
			snaps := decodeSnapshots(t, rec.Body)
			if len(snaps) < 2 {
				t.Fatalf("trial %d (%s): %d frames", trial, url, len(snaps))
			}
			for i := 1; i < len(snaps); i++ {
				prev, next := snaps[i-1], snaps[i]
				if len(next.Results) < len(prev.Results) && len(prev.Results) <= 5 {
					t.Fatalf("trial %d (%s): frame %d lost results (%d -> %d)",
						trial, url, i, len(prev.Results), len(next.Results))
				}
				for r := range prev.Results {
					if r >= len(next.Results) {
						break
					}
					if next.Results[r].Dist > prev.Results[r].Dist {
						t.Fatalf("trial %d (%s): rank %d worsened %v -> %v between frames %d and %d",
							trial, url, r, prev.Results[r].Dist, next.Results[r].Dist, i-1, i)
					}
				}
			}
		}
	}
}

func FuzzV2Decode(f *testing.F) {
	seeds := []struct {
		method, raw, body string
	}{
		{http.MethodGet, "q=cinema&k=3", ""},
		{http.MethodGet, "q=cinema&mode=dtw&band=5&epsilon=0.1&delta=0.05&nprobe=4", ""},
		{http.MethodGet, "q=cinema&mode=periods&period=7,30.5&rel_tol=0.1", ""},
		{http.MethodGet, "q=cinema&stream=ndjson&max_nodes=100&deadline_ms=50", ""},
		{http.MethodGet, "q=a&epsilon=NaN", ""},
		{http.MethodGet, "%zz=bad", ""},
		{http.MethodPost, "", `{"q":"cinema","k":3,"epsilon":0.2}`},
		{http.MethodPost, "", `{"q":"a","unknown":1}`},
		{http.MethodPost, "", `{"q":"a"} trailing`},
		{http.MethodPost, "", `{`},
		{http.MethodDelete, "q=a", ""},
	}
	for _, s := range seeds {
		f.Add(s.method, s.raw, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, method, raw string, body []byte) {
		vq, ve := DecodeV2Request(method, raw, body)
		if ve != nil {
			// The error contract: a structured status/code pair from the
			// taxonomy, never a bare 500.
			switch ve.Status {
			case http.StatusBadRequest, http.StatusMethodNotAllowed:
			default:
				t.Fatalf("decode error escaped the 400/405 taxonomy: %d %s", ve.Status, ve.Code)
			}
			if ve.Code == "" || ve.Message == "" {
				t.Fatalf("empty code/message: %+v", ve)
			}
			return
		}
		// Accepted requests satisfy the documented invariants.
		if vq.Query == "" || vq.K < 1 || !v2Modes[vq.Mode] || !v2Streams[vq.Stream] {
			t.Fatalf("accepted request violates contract: %+v", vq)
		}
		if err := vq.Approx().Validate(); err != nil {
			t.Fatalf("accepted request carries invalid approx: %v (%+v)", err, vq)
		}
	})
}

// TestV2SearchRequestIDResolvable is the acceptance criterion end to end:
// the /v2/search response's one ID, its trace_id, resolves at
// /debug/requests to a wide event describing the same search.
func TestV2SearchRequestIDResolvable(t *testing.T) {
	t.Parallel()
	e, hub, _ := attrEngine(t, 2)
	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: V2SearchHandler(e)}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v2/search?q=" + querylog.ExemplarNames()[0] + "&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var sr V2Response
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if sr.TraceID == "" {
		t.Fatal("search response carries no trace_id")
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/requests?id=" + sr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s status %d", sr.TraceID, resp.StatusCode)
	}
	var ev obs.WideEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Op != "similar_id" || ev.K != 3 {
		t.Errorf("wide event = %+v, want op=similar_id k=3", ev)
	}
	if ev.Results != 3 {
		t.Errorf("wide event results = %d, want 3", ev.Results)
	}
	if ev.BoundsComputed <= 0 {
		t.Error("wide event attributes no index work")
	}
}
