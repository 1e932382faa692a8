package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A tail percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.99, 0.5}, {99, 0.99, 0.5}, {100, 0.99, 0.9}, {999, 0.99, 0.9},
		{1000, 0.99, 0.99}, {9999, 0.999, 0.99}, {10000, 0.999, 0.999}, {10000, 0.99, 0.99},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 1: 1000} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	med, spread := quartileSpread(v)
	if med != 5.5 || math.Abs(spread-1.0) > 1e-12 {
		t.Errorf("quartileSpread = (%v, %v), want (5.5, 1)", med, spread)
	}
	// statistics.quantiles([10, 11, 12, 50], n=4) == [10.25, 11.5, 40.5]
	med, spread = quartileSpread([]float64{10, 11, 12, 50})
	if med != 11.5 || math.Abs(spread-30.25/11.5) > 1e-12 {
		t.Errorf("quartileSpread = (%v, %v), want (11.5, %v)", med, spread, 30.25/11.5)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "handler", StartNS: 500, EndNS: 570, Parent: 1}, // replayed later: outside the parent's interval
		{ID: 3, Name: "query", StartNS: 900, EndNS: 950, Parent: 2},
		{ID: 4, Name: "store.get", StartNS: 1000, EndNS: 1005, Parent: 3},
		{ID: 5, Name: "tree.search", StartNS: 1010, EndNS: 1050, Parent: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 20, 3: 5, 4: 5, 5: 40} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != spans[0].dur() {
		t.Errorf("self times add to %v, the root span is %v", sum, spans[0].dur())
	}
	if got := meanByName(spans, span.dur)["tree.search"]; got != 40 {
		t.Errorf("mean tree.search = %v", got)
	}
}

// TestOpenLoopChargesStallToLaterRequests drives the open loop, with a
// single sender, at a server that stalls on its first request: every request
// that came due during the stall must be timed from its due time, not from
// when the freed sender got to it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer srv.Close()
	g := &loadgen{hc: newHTTPClient(1), base: srv.URL, epoch: time.Now(),
		reqs: []request{{family: famSimilar, query: "q=x"}}}
	defer g.hc.CloseIdleConnections()

	samples := g.open(100, 500*time.Millisecond, 1, 0) // 50 requests, 10 ms apart
	if len(samples) != 50 {
		t.Fatalf("%d samples, want 50", len(samples))
	}
	for n, s := range samples {
		if s.err != nil || s.status != 200 {
			t.Fatalf("request %d: status %d err %v", n, s.status, s.err)
		}
		wantDue := samples[0].due + time.Duration(n)*10*time.Millisecond
		if d := s.due - wantDue; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("request %d due at %v, want %v", n, s.due, wantDue)
		}
	}
	// Request 10 was due 100 ms in, while the server was stalled for another
	// 200 ms: its latency must include that wait although its own service
	// was instant.
	s := samples[10]
	if wait := stall - 100*time.Millisecond; s.latency() < wait-20*time.Millisecond {
		t.Errorf("request 10 latency %v does not include the %v it waited behind the stall", s.latency(), wait)
	}
	if service := s.end - s.sent; service > 100*time.Millisecond {
		t.Errorf("request 10 took %v to serve; the stall should be charged as waiting", service)
	}
	if late := sendLateMS(samples)[10]; late < 150 {
		t.Errorf("request 10 reported %v ms send lateness, want about 200", late)
	}
	// Once the backlog has drained, requests are on time again.
	if last := samples[49]; last.latency() > 100*time.Millisecond {
		t.Errorf("last request still %v late after the backlog drained", last.latency())
	}
}

func TestOracle(t *testing.T) {
	z := [][]float64{{0, 0}, {3, 4}, {0, 5}, {1, 0}, {5, 0}}
	got := bruteKNN(z, 0, 3)
	want := []neighbor{{3, 1}, {1, 5}, {2, 5}} // equal distances rank by id
	if len(got) != len(want) {
		t.Fatalf("bruteKNN = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bruteKNN[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	ok := []wireResult{{ID: 3, Dist: 1}, {ID: 2, Dist: 5}, {ID: 1, Dist: 5}} // a tie in the other order
	if err := matchesOracle(ok, want); err != nil {
		t.Errorf("reordered tie rejected: %v", err)
	}
	bad := []wireResult{{ID: 3, Dist: 1}, {ID: 1, Dist: 5}, {ID: 4, Dist: 5}}
	if err := matchesOracle(bad, want); err == nil {
		t.Error("wrong neighbour accepted")
	}
	if err := checkResults(request{family: famSimilar, id: 0, k: 2}, []wireResult{{ID: 1, Dist: 5}, {ID: 3, Dist: 1}}); err == nil {
		t.Error("descending distances accepted")
	}
}

func TestCheckSampleStream(t *testing.T) {
	r := request{family: famStream, id: 9, k: 1}
	frame := func(seq int, final bool) string {
		return fmt.Sprintf(`{"seq":%d,"final":%v,"elapsed_ms":%d,"results":[{"id":1,"dist":2}]}`+"\n", seq, final, seq)
	}
	good := sample{status: 200, body: []byte(frame(1, false) + frame(2, true))}
	if _, err := checkSample(r, good); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
	for name, body := range map[string]string{
		"one frame":    frame(1, true),
		"no final":     frame(1, false) + frame(2, false),
		"two finals":   frame(1, true) + frame(2, true),
		"out of order": frame(2, false) + frame(1, true),
	} {
		if _, err := checkSample(r, sample{status: 200, body: []byte(body)}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []boundedMetric{
		{Name: "p50_ms", Better: "lower", Bound: 0.10},
		{Name: "qps", Better: "higher", Bound: 0.10},
	}}
	recs := func(seed0 int64, p50, qps []float64, nodes float64) []result {
		var out []result
		for i := range p50 {
			out = append(out, result{Workload: "w", Seed: seed0 + int64(i), Metrics: map[string]metric{
				"p50_ms": {Value: p50[i]}, "qps": {Value: qps[i]}, "vptree.nodes_per_q": {Value: nodes},
			}})
		}
		return out
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.2
		noisy[i] = v * (1 + 0.3*float64(i%2))
	}
	var buf bytes.Buffer
	bad, err := compare(bf, recs(1, steady, steady, 42), recs(1, slower, noisy, 43), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for metric, want := range map[string]string{"p50_ms": "worse", "qps": "unresolved", "vptree.nodes_per_q": "DIFFERS"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q verdict for %s in:\n%s", want, metric, out)
		}
	}
	if bad != 2 {
		t.Errorf("%d bad rows, want 2 (worse + DIFFERS)", bad)
	}
	buf.Reset()
	if bad, err = compare(bf, recs(1, steady, steady, 42), recs(1, steady, steady, 42), &buf); err != nil || bad != 0 {
		t.Errorf("identical sets: bad=%d err=%v\n%s", bad, err, buf.String())
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, the driver's contract,
// in step with what the program emits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []boundedMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
			if file[i].Better != "lower" && file[i].Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, file[i].Name, file[i].Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics)
	same("per_layer", bf.PerLayer, perLayerMetrics)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, code %q / %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at the smoke tier
// against the real binary, and requires each run to emit exactly the
// declared metrics, finite, under well-formed names, with no failed request.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real binary")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, buildDir: t.TempDir(), outDir: t.TempDir(), seed: 7, seconds: 1, smoke: true}
	if cfg.s2, err = buildS2(root, cfg.buildDir); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			c := cfg
			c.trace = trace
			res, err := runWorkload(context.Background(), w, c)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", w.name, trace, d.name, m.Value)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case !nameRE.MatchString(d.name):
					t.Errorf("metric name %q is malformed", d.name)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, m.Value)
				}
			}
		}
	}
}
