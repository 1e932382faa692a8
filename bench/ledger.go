package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/burst"
	"repro/internal/burstdb"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// Sizes of the traced run. Counts, not durations, bound the passes whose
// counter deltas must repeat exactly from run to run.
const (
	tracedRequests = 300 // serial pass length (the issue's traced replay)
	sideLinear     = 30  // extra serial requests per family, so every
	sideQBB        = 30  // workload reports each family at its own corpus size
	sideStream     = 10
	sideSlow       = 3 // dtw and periods: each is a full scan
)

// inproc is the program rebuilt inside the benchmark process from the same
// corpus file and with the same wiring as cmd/s2, so that each nesting level
// can be called, and timed, directly.
type inproc struct {
	searcher core.Searcher
	engine   *core.Engine         // the single engine; shard 0 when sharded
	sharded  *shard.ShardedEngine // nil for a single engine
	hub      *obs.Hub
	handler  http.Handler
}

// newInproc mirrors cmd/s2's buildEngine and route wiring.
func newInproc(w *workload, c *corpus) (*inproc, error) {
	p := &inproc{hub: obs.NewHub()}
	p.hub.Traces.SetSampler(obs.NewTailSampler(1, p.hub.Slow))
	if w.inProcess {
		eng, err := core.NewEngine(c.data, core.Config{DynamicIndex: true, Obs: p.hub})
		if err != nil {
			return nil, err
		}
		p.searcher, p.engine = eng, eng
	} else {
		data, err := querylog.LoadBinary(c.path, querylog.DefaultStart)
		if err != nil {
			return nil, err
		}
		s, err := shard.NewFromConfig(data, core.Config{Budget: 16, Shards: w.shards, Obs: p.hub})
		if err != nil {
			return nil, err
		}
		p.searcher = s
		switch e := s.(type) {
		case *core.Engine:
			p.engine = e
		case *shard.ShardedEngine:
			p.sharded, p.engine = e, e.Engine(0)
		}
	}
	ac := admit.New(admit.Options{MaxInFlight: 64, MaxWait: time.Second}, p.hub.Registry())
	ac.SetRequestLog(p.hub.RequestLog())
	ac.SetTracer(p.hub.Traces)
	p.handler = obs.Handler(p.hub, obs.Route{Pattern: "/v2/search", Handler: admit.Middleware(ac, core.V2SearchHandler(p.searcher))})
	return p, nil
}

// counters reads the in-process registry in the same form as a scrape.
func (p *inproc) counters() (counters, error) {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf, p.hub.Registry().Snapshot())
	return parseCounters(&buf)
}

// serve answers a request through the in-process handler.
func (p *inproc) serve(r request) (int, []byte) {
	target := "/v2/search"
	if !r.post {
		target += "?" + r.query
	}
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, httptest.NewRequest(r.method(), target, bytes.NewReader(r.body)))
	return rec.Code, rec.Body.Bytes()
}

// coreRequest maps a wire request onto the engine request the v2 handler
// builds for it.
func coreRequest(c *corpus, r request) core.Request {
	req := core.Request{ID: r.id, K: r.k}
	switch r.family {
	case famSimilar, famStream:
		req.Kind = core.KindSimilarID
	case famLinear:
		req.Kind, req.Values, req.K = core.KindLinear, c.data[r.id].Values, r.k+1
	case famDTW:
		req.Kind, req.Band = core.KindDTW, 7
	case famPeriods:
		req.Kind, req.Periods = core.KindSimilarPeriods, []float64{7, 30}
	case famQBB:
		req.Kind = core.KindBurstID
	}
	return req
}

// query runs a request at the Searcher.Query level, as the handler would:
// one Query, or for a stream the progressive ladder of node budgets (64,
// x8, …) up to an unlimited rung. It returns the summed index work.
func (p *inproc) query(c *corpus, r request) (vptree.Stats, error) {
	req := coreRequest(c, r)
	var sum vptree.Stats
	for rung := 64; ; rung *= 8 {
		req.Budget.MaxNodeVisits = 0
		if r.family == famStream && rung <= 1<<27 {
			req.Budget.MaxNodeVisits = rung
		}
		resp, err := p.searcher.Query(context.Background(), req)
		if err != nil {
			return sum, err
		}
		sum.Add(resp.Stats)
		if !resp.Truncated {
			return sum, nil
		}
	}
}

// kernelEvals sums the flat-kernel bound evaluations of every tree behind
// the searcher (one per live shard).
func (p *inproc) kernelEvals() int64 {
	if p.sharded == nil {
		return p.engine.Tree().KernelStats().KernelEvals
	}
	var n int64
	for sh := 0; sh < p.sharded.Shards(); sh++ {
		if e := p.sharded.Engine(sh); e != nil {
			n += e.Tree().KernelStats().KernelEvals
		}
	}
	return n
}

// timeLoop runs fn n times and returns the mean duration of one call.
func timeLoop(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// sink keeps results of timed calls alive so the compiler cannot drop them.
var sink any

// front is whatever answers the serial passes of a traced run: the real
// binary over loopback, or — for the in-process workload — the handler.
// pass sends count requests one at a time starting at list position from,
// calling each (when not nil) as an answer completes.
type front interface {
	pass(from, count int, each func(sample)) []sample
	counters() (counters, error)
}

type httpFront struct{ g *loadgen }

func (f httpFront) pass(from, count int, each func(sample)) []sample {
	out := make([]sample, count)
	for n := range out {
		out[n] = f.g.do(from+n, -1)
		if each != nil {
			each(out[n])
		}
	}
	return out
}
func (f httpFront) counters() (counters, error) { return scrape(f.g.hc, f.g.base) }

type handlerFront struct {
	p     *inproc
	reqs  []request
	epoch time.Time
}

func (f handlerFront) pass(from, count int, each func(sample)) []sample {
	out := make([]sample, count)
	for n := range out {
		i := (from + n) % len(f.reqs)
		s := sample{req: i, sent: time.Since(f.epoch)}
		s.due = s.sent
		s.status, s.body = f.p.serve(f.reqs[i])
		s.end = time.Since(f.epoch)
		s.first = s.end
		out[n] = s
		if each != nil {
			each(s)
		}
	}
	return out
}
func (f handlerFront) counters() (counters, error) { return f.p.counters() }

// sidePass is the extra request list every traced run sends after the main
// pass, so each family has a client-observed latency and counter deltas at
// this workload's corpus size.
func sidePass(c *corpus, seed int64, smoke bool) []request {
	rng := rand.New(rand.NewSource(seed + 1))
	scale := func(n int) int {
		if smoke {
			return max(1, n/5)
		}
		return n
	}
	// Similar and linear share their query series: their p50 ratio is the
	// paper's speed-up of the index over the scan.
	lin := spreadRequests(c, rng, famLinear, 0, scale(sideLinear), 10, false)
	var out []request
	for _, r := range lin {
		out = append(out, newRequest(c, famSimilar, r.id, r.k, false))
	}
	out = append(out, lin...)
	out = append(out, spreadRequests(c, rng, famQBB, 0, scale(sideQBB), 10, false)...)
	out = append(out, spreadRequests(c, rng, famStream, 0, scale(sideStream), 10, false)...)
	out = append(out, spreadRequests(c, rng, famDTW, 0, sideSlow, 10, false)...)
	out = append(out, spreadRequests(c, rng, famPeriods, 0, sideSlow, 10, false)...)
	return out
}

func ofFamily(reqs []request, family string) []request {
	var out []request
	for _, r := range reqs {
		if r.family == family {
			out = append(out, r)
		}
	}
	return out
}

// familyP50 is the client-observed median latency of one family's samples,
// up to the instant `at` picks (first frame or end).
func familyP50(reqs []request, samples []sample, family string, at func(sample) time.Duration) (float64, int) {
	var v []float64
	for _, s := range samples {
		if reqs[s.req].family == family && s.err == nil && s.status == http.StatusOK {
			v = append(v, ms(at(s)-s.due))
		}
	}
	return median(v), len(v)
}

// frontRun is what the serial passes against the front produced.
type frontRun struct {
	traced, untraced []sample // main list, n each: with and without span recording
	side, loaded     []sample // the side pass; the loaded window (served workloads)
	clientSpan       []int    // span ID of each main-list request
	c0, c1, c2       counters
	reportedUS       float64       // mean elapsed_ms the front reported for the main list, in us
	idle             time.Duration // how long the front sat idle between two serial requests
}

// tracedRun carries one traced run's state between its phases.
type tracedRun struct {
	w    *workload
	cfg  config
	res  *result
	rec  *recorder
	c    *corpus
	p    *inproc
	reqs []request // main list: the first n of the workload's requests
	side []request
	all  []request // reqs + side: what the front is sent
	full []request // the workload's whole list (open loop)
}

// runTraced is the traced run: serial passes against the front with client
// spans and counter deltas, then in-process replays of the same requests one
// nesting level at a time, then the isolated primitives. Every per-layer
// metric is computed from those spans, counts and loops.
func runTraced(ctx context.Context, w *workload, cfg config, res *result) error {
	t := &tracedRun{w: w, cfg: cfg, res: res, rec: &recorder{epoch: time.Now()}}
	c, reqs, datagen, err := prepare(w, cfg)
	if err != nil {
		return err
	}
	res.set("querylog.datagen_s", datagen.Seconds(), 0)
	n := min(w.tracedCount(cfg), len(reqs))
	t.c, t.full, t.reqs = c, reqs, reqs[:n]
	t.side = sidePass(c, cfg.seed, cfg.smoke)
	t.all = append(append([]request(nil), t.reqs...), t.side...)
	// The in-process workload's front is the in-process handler; a served
	// one's program is rebuilt only once the binary has been stopped, so the
	// two never compete for the machine.
	if w.inProcess {
		if t.p, err = newInproc(w, c); err != nil {
			return err
		}
	}
	fr, err := t.frontPasses(ctx)
	if err != nil {
		return err
	}
	if !w.inProcess {
		if t.p, err = newInproc(w, c); err != nil {
			return err
		}
	}
	defer t.p.searcher.Close()
	work, err := t.replay(fr)
	if err != nil {
		return err
	}
	t.ledger(fr, work)

	prim, err := t.primitives()
	if err != nil {
		return err
	}
	if search, ok := res.Metrics["vptree.search_us"]; ok && search.Samples > 0 {
		// What the tree search costs beyond its counted primitives, each
		// priced in isolation. Negative when the primitives cost less in
		// place than alone (refinement abandons most distances early).
		perQ := func(total int) float64 { return float64(total) / float64(n) }
		known := prim["spectral.from_values_us"] + prim["spectral.qctx_us"] +
			perQ(work.BoundsComputed)*prim["spectral.bounds_ns_per_entry_b4"]/1000 +
			perQ(work.FullRetrievals)*(prim["seqstore.get_ns"]+prim["series.euclidean_1024_ns"])/1000
		res.set("vptree.search_self_us", search.Value-known, n)
	} else {
		res.notApplicable("vptree.search_self_us")
	}

	if w.inProcess {
		held := heldOut(len(c.data), heldOutCount(cfg), cfg.days(), cfg.seed)
		r, err := runIngestRound(c, t.reqs, held, time.Duration(cfg.seconds)*time.Second/setupRepeats)
		if err != nil {
			return err
		}
		defer r.engine.Close()
		for i, iv := range r.adds {
			t.rec.add("add", "core", iv.start, iv.end, 0, i)
		}
		for i, iv := range r.reads {
			t.rec.add("read", "core", iv.start, iv.end, 0, i)
		}
		res.count(verifyIngest(r, c, t.reqs, held, cfg.seed))
		t.setTail(summarize(timingsSince(t.rec.epoch, r.reads)))
		res.set("s2.add_p50_ms", median(latenciesMS(timingsSince(t.rec.epoch, r.adds))), len(r.adds))
		res.set("s2.ingest_per_s", float64(len(r.adds))/r.wall.Seconds(), len(r.adds))
	} else {
		res.notApplicable("s2.add_p50_ms", "s2.ingest_per_s")
	}
	return t.rec.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
}

// setTail reports the loaded window's tail percentile: p99 where a pass has
// ten samples beyond it, else the highest percentile that does.
func (t *tracedRun) setTail(s summary) {
	if s.tailP != 0.99 {
		t.res.note("s2.p99_ms reports p%g: a pass of %d samples has fewer than 10 beyond p99", s.tailP*100, s.n/s.passes)
	}
	t.res.set("s2.p99_ms", s.tail, s.n)
}

// frontPasses boots the front, sends it the serial passes and stops it.
func (t *tracedRun) frontPasses(ctx context.Context) (*frontRun, error) {
	var f front = handlerFront{p: t.p, reqs: t.all, epoch: t.rec.epoch}
	var srv *server
	var whole *loadgen // the workload's whole list, for the loaded window
	if !t.w.inProcess {
		hc := newHTTPClient(openWorkers)
		defer hc.CloseIdleConnections()
		var err error
		srv, err = bootServer(ctx, t.cfg.s2, t.c.path, t.w.shards, filepath.Join(t.cfg.outDir, "s2-"+t.w.name+".log"), hc)
		if err != nil {
			return nil, err
		}
		defer srv.kill()
		f = httpFront{&loadgen{hc: hc, base: srv.base, reqs: t.all, epoch: t.rec.epoch}}
		whole = &loadgen{hc: hc, base: srv.base, reqs: t.full, epoch: t.rec.epoch}
	}
	n := len(t.reqs)
	fr := &frontRun{clientSpan: make([]int, n)}
	var err error

	f.pass(0, min(n, 50), nil) // warm-up
	if whole != nil {
		// The tail under the untraced run's load shape, for half its window.
		window := time.Duration(t.cfg.seconds) * time.Second / 2
		if t.w.openLoop {
			fr.loaded = whole.open(openLoopRate, window, openWorkers, 0)
		} else {
			fr.loaded = whole.closed(clients, 0, 0, window)
		}
		t.setTail(summarize(timings(fr.loaded)))
	}
	if fr.c0, err = f.counters(); err != nil {
		return nil, err
	}
	// Two passes over the main list. Each records a client span for half of
	// the requests — even positions in the first pass, odd in the second —
	// so the recorded and the unrecorded set both hold every request once,
	// half from each pass, and their difference is the cost of recording,
	// not the order of the passes.
	for pass := 0; pass < 2; pass++ {
		f.pass(0, n, func(s sample) {
			if s.req%2 != pass {
				fr.untraced = append(fr.untraced, s)
				return
			}
			fr.clientSpan[s.req] = t.rec.add("client", "s2", t.rec.epoch.Add(s.sent), t.rec.epoch.Add(s.end), 0, s.req)
			fr.traced = append(fr.traced, s)
		})
	}
	if fr.c1, err = f.counters(); err != nil {
		return nil, err
	}
	fr.side = f.pass(n, len(t.side), nil)
	if fr.c2, err = f.counters(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the deferred kill stops the server
	}
	if srv != nil {
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}

	v := verify(t.all, append(append([]sample(nil), fr.untraced...), fr.traced...), t.c.z, t.cfg.seed)
	t.res.count(v)
	t.res.count(verify(t.all, fr.side, t.c.z, t.cfg.seed))
	t.res.count(verify(t.full, fr.loaded, t.c.z, t.cfg.seed))

	client := mean(latenciesMS(timings(fr.traced)))
	untraced := mean(latenciesMS(timings(fr.untraced)))
	fr.reportedUS = mean(v.elapsedMS) * 1000
	if !t.w.inProcess { // the in-process front is called back to back, like the replays
		fr.idle = time.Duration(math.Max(0, client*1000-fr.reportedUS) * float64(time.Microsecond))
	}
	t.res.set("s2.serial_mean_us", client*1000, n)
	t.res.set("loadgen.trace_overhead_pct", 100*(client-untraced)/untraced, n)
	qw := sortedCopy(v.queueWaitMS)
	t.res.set("admit.queue_wait_ms_p50", percentile(qw, 0.5), len(qw))
	t.res.set("admit.shed_total", fr.c2.delta(fr.c0, "admission_rejected_total")+fr.c2.delta(fr.c0, "admission_timeout_total"), 0)
	if t.w.openLoop {
		late := sortedCopy(sendLateMS(fr.loaded))
		t.res.set("loadgen.late_ms_p99", percentile(late, tailPercentile(len(late), 0.99)), len(late))
	} else {
		t.res.notApplicable("loadgen.late_ms_p99")
	}
	return fr, nil
}

// replay calls each nesting level of the main list in-process, one level
// per pass, recording a span per call whose parent is the same request's
// span one level up. It returns the index work the Query pass summed.
//
// Between two calls the replay sleeps as long as the front sat idle between
// two serial requests: an idle Go process parks its threads, and waking
// them is part of what a query costs the binary (a quarter of it, sharded).
// Replaying back to back would time a hotter program than the one served.
func (t *tracedRun) replay(fr *frontRun) (vptree.Stats, error) {
	var work vptree.Stats
	p, n := t.p, len(t.reqs)
	for i := 0; i < min(n, 50); i++ { // warm-up
		p.serve(t.reqs[i])
	}
	runtime.GC() // start the passes with a collected heap, so none pays for the build's garbage
	handlerSpan := make([]int, n)
	frontAnswer := make([]sample, n)
	for _, s := range fr.traced {
		frontAnswer[s.req] = s
	}
	for i, r := range t.reqs {
		time.Sleep(fr.idle)
		start := time.Now()
		code, body := p.serve(r)
		handlerSpan[i] = t.rec.add("handler", "core", start, time.Now(), fr.clientSpan[i], i)
		// The levels below the client describe the binary only if this is
		// the same program on the same data: it must give the same answer.
		t.res.Attempted++
		if err := sameAnswer(r, code, body, frontAnswer[i]); err != nil {
			t.res.Failed++
			t.res.note("in-process handler disagrees with the binary on request %d: %v", i, err)
		}
	}

	var ms0, ms1 runtime.MemStats
	evals0 := p.kernelEvals()
	querySpan := make([]int, n)
	var busy time.Duration
	runtime.ReadMemStats(&ms0)
	for i, r := range t.reqs {
		time.Sleep(fr.idle)
		start := time.Now()
		st, err := p.query(t.c, r)
		end := time.Now()
		if err != nil {
			return work, fmt.Errorf("in-process query %d: %w", i, err)
		}
		querySpan[i] = t.rec.add("query", "core", start, end, handlerSpan[i], i)
		busy += end.Sub(start)
		work.Add(st)
	}
	runtime.ReadMemStats(&ms1)
	t.res.set("core.query_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), n)
	t.res.set("core.query_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), n)
	t.res.set("core.gc_pause_share", 100*float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/float64(busy.Nanoseconds()), n)
	t.res.set("vptree.kernel_evals_per_q", float64(p.kernelEvals()-evals0)/float64(n), n)

	// One level further down, for kNN by ID: what Engine.Query does (fetch
	// the stored curve, search the tree), or — sharded — the slowest shard
	// of the same standardized sub-request, the step the gather waits for.
	for i, r := range t.reqs {
		if r.family != famSimilar {
			continue
		}
		time.Sleep(fr.idle)
		if p.sharded == nil {
			start := time.Now()
			z, err := p.engine.Store().Get(r.id)
			end := time.Now()
			if err != nil {
				return work, err
			}
			t.rec.add("store.get", "seqstore", start, end, querySpan[i], i)
			start = time.Now()
			out, _, _, err := p.engine.Tree().SearchLimited(z, r.k+1, p.engine.Features(), p.engine.Store(), nil)
			end = time.Now()
			if err != nil {
				return work, err
			}
			sink = out
			t.rec.add("tree.search", "vptree", start, end, querySpan[i], i)
			continue
		}
		z, err := p.sharded.StandardizedValues(r.id)
		if err != nil {
			return work, err
		}
		sub := core.Request{Kind: core.KindSimilar, Values: z, Standardized: true, K: r.k + 1}
		var slowStart, slowEnd time.Time
		for sh := 0; sh < p.sharded.Shards(); sh++ {
			eng := p.sharded.Engine(sh)
			if eng == nil {
				continue
			}
			start := time.Now()
			if _, err := eng.Query(context.Background(), sub); err != nil {
				return work, err
			}
			if end := time.Now(); end.Sub(start) > slowEnd.Sub(slowStart) {
				slowStart, slowEnd = start, end
			}
		}
		t.rec.add("shard.slowest", "core", slowStart, slowEnd, querySpan[i], i)
	}
	return work, nil
}

// sameAnswer requires the in-process handler's answer to a request to equal
// the front's.
func sameAnswer(r request, code int, body []byte, front sample) error {
	want, err := checkSample(r, front)
	if err != nil {
		return nil // already counted against the front
	}
	got, err := checkSample(r, sample{status: code, body: body})
	if err != nil {
		return err
	}
	if fmt.Sprint(got.Results) != fmt.Sprint(want.Results) {
		return fmt.Errorf("handler %v, front %v", got.Results, want.Results)
	}
	return nil
}

// ledger turns the spans and counter deltas into the per-layer metrics.
func (t *tracedRun) ledger(fr *frontRun, work vptree.Stats) {
	res, n := t.res, len(t.reqs)
	self := selfTimes(t.rec.spans)
	dur := meanByName(t.rec.spans, span.dur)
	selfMean := meanByName(t.rec.spans, func(s span) time.Duration { return self[s.ID] })

	res.set("s2.wire_us", us(dur["client"]-dur["handler"]), n)
	res.set("core.handler_self_us", us(selfMean["handler"]), n)
	res.set("core.query_us", us(dur["query"]), n)
	res.set("ledger.gap_pct", 100*math.Abs(fr.reportedUS-us(dur["query"]))/fr.reportedUS, 2*n)

	// Counter-derived per-request work, over the two main passes. The
	// front's counters must equal the in-process Stats sums of the same
	// requests, or the in-process ledger describes another program.
	fn := float64(2 * n)
	nodes := fr.c1.delta(fr.c0, "vptree_nodes_visited_total")
	bounds := fr.c1.delta(fr.c0, "vptree_bounds_computed_total")
	cands := fr.c1.delta(fr.c0, "vptree_candidates_total")
	fulls := fr.c1.delta(fr.c0, "vptree_full_retrievals_total")
	res.Attempted++
	if nodes != float64(2*work.NodesVisited) || bounds != float64(2*work.BoundsComputed) ||
		cands != float64(2*work.Candidates) || fulls != float64(2*work.FullRetrievals) {
		res.Failed++
		res.note("counter deltas over 2 passes (nodes %v bounds %v candidates %v retrievals %v) differ from the in-process sums %+v", nodes, bounds, cands, fulls, work)
	}
	size := float64(len(t.c.data))
	res.set("vptree.nodes_per_q", nodes/fn, 2*n)
	res.set("vptree.bounds_per_q", bounds/fn, 2*n)
	res.set("vptree.candidates_per_q", cands/fn, 2*n)
	res.set("vptree.full_retrievals_per_q", fulls/fn, 2*n)
	res.set("vptree.prune_ratio", 1-cands/fn/size, 2*n)
	res.set("vptree.fraction_examined", fulls/fn/size, 2*n)
	res.set("seqstore.reads_per_q", fr.c1.delta(fr.c0, "seqstore_reads_total")/fn, 2*n)
	res.set("seqstore.read_bytes_per_q", fr.c1.delta(fr.c0, "seqstore_read_bytes_total")/fn, 2*n)

	// Client-observed families, from the main pass where it has them and
	// the side pass otherwise.
	fam := append(append([]sample(nil), fr.traced...), fr.side...)
	end := func(s sample) time.Duration { return s.end }
	for _, m := range []struct {
		metric, family string
		at             func(sample) time.Duration
	}{
		{"s2.qbb_p50_ms", famQBB, end}, {"s2.linear_p50_ms", famLinear, end},
		{"s2.dtw_p50_ms", famDTW, end}, {"s2.periods_p50_ms", famPeriods, end},
		{"s2.stream_first_p50_ms", famStream, func(s sample) time.Duration { return s.first }},
		{"s2.stream_final_p50_ms", famStream, end},
	} {
		p50, cnt := familyP50(t.all, fam, m.family, m.at)
		res.set(m.metric, p50, cnt)
	}
	linP50, _ := familyP50(t.all, fr.side, famLinear, end)
	simP50, cnt := familyP50(t.all, fr.side, famSimilar, end)
	res.set("vptree.speedup_vs_linear", linP50/simP50, cnt)
	qbbN := float64(len(ofFamily(t.side, famQBB)))
	res.set("burstdb.rows_scanned_per_q", fr.c2.delta(fr.c1, "burstdb_rows_scanned_total")/qbbN, int(qbbN))
	res.set("btree.probes_per_q", fr.c2.delta(fr.c1, "burstdb_btree_probes_total")/qbbN, int(qbbN))

	if sh := t.p.sharded; sh != nil {
		biggest, live := 0, 0
		for _, s := range sh.ShardSizes() {
			biggest = max(biggest, s)
			if s > 0 {
				live++
			}
		}
		gs := sh.GatherStats()
		res.set("shard.overhead_us", us(selfMean["query"]), n)
		res.set("shard.fanout", float64(live), 0)
		res.set("shard.series_imbalance", float64(biggest)*float64(sh.Shards())/size, 0)
		res.set("shard.gather_pct", 100*float64(gs.GatherNS)/float64(gs.Scatters)/float64(dur["query"].Nanoseconds()), int(gs.Scatters))
		res.Attempted++
		if got := fr.c1.delta(fr.c0, "shard_scatter_total"); got != fn {
			res.Failed++
			res.note("shard_scatter_total moved %v over %v requests", got, fn)
		}
		res.notApplicable("core.query_self_us", "vptree.search_us")
		return
	}
	res.notApplicable("shard.overhead_us", "shard.fanout", "shard.series_imbalance", "shard.gather_pct")
	res.set("core.query_self_us", us(selfMean["query"]), n)
	res.set("vptree.search_us", us(dur["tree.search"]), len(ofFamily(t.reqs, famSimilar)))
}

// primitives times each layer's exported building blocks in isolation, on
// this workload's data. Iteration counts are fixed, so the work is the same
// on every run; each value is the mean of one call. It sets the metrics and
// also returns their values by name.
func (t *tracedRun) primitives() (map[string]float64, error) {
	c, p := t.c, t.p
	out := map[string]float64{}
	put := func(name string, v float64, n int) {
		out[name] = v
		t.res.set(name, v, n)
	}
	rows := len(c.z)
	iters := 2000
	if t.cfg.smoke {
		iters = 200
	}
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }

	put("fft.forward_real_1024_us", us(timeLoop(iters, func(i int) {
		x, e := fft.ForwardReal(c.z[i%rows])
		sink = x
		fail(e)
	})), iters)
	put("spectral.from_values_us", us(timeLoop(iters, func(i int) {
		h, e := spectral.FromValues(c.z[i%rows])
		sink = h
		fail(e)
	})), iters)
	specs, e := spectral.FromValuesBatch(c.z)
	if e != nil {
		return nil, e
	}
	put("spectral.qctx_us", us(timeLoop(iters, func(i int) { sink = spectral.NewQueryContext(specs[i%rows]) })), iters)
	put("spectral.compress_us", us(timeLoop(iters, func(i int) {
		f, e := spectral.Compress(specs[i%rows], spectral.BestMinError, 16)
		sink = f
		fail(e)
	})), iters)
	put("series.standardize_us", us(timeLoop(iters, func(i int) { sink = c.data[i%rows].Standardized() })), iters)
	put("series.euclidean_1024_ns", ns(timeLoop(50*iters, func(i int) {
		d, e := series.Euclidean(c.z[i%rows], c.z[(i+1)%rows])
		sink = d
		fail(e)
	})), 50*iters)
	put("burst.detect_1024_us", us(timeLoop(iters, func(i int) {
		d, e := burst.Detect(c.z[i%rows], burst.Options{Window: burst.ShortWindow})
		sink = d
		fail(e)
	})), iters)

	// The engine's own store and features, as its queries reach them.
	store, buf := p.engine.Store(), make([]float64, t.cfg.days())
	put("seqstore.get_ns", ns(timeLoop(50*iters, func(i int) { fail(store.GetInto(i%store.Len(), buf)) })), 50*iters)
	arena, e := spectral.NewArena(p.engine.Tree().Features())
	if e != nil {
		return nil, e
	}
	qctx := spectral.NewQueryContext(specs[0])
	for _, b := range []struct {
		name  string
		block int
	}{{"spectral.bounds_ns_per_entry_b4", 4}, {"spectral.bounds_ns_per_entry_b32", 32}} {
		refs := make([]int32, b.block)
		lb, ub := make([]float64, b.block), make([]float64, b.block)
		blocks := max(1, arena.Len()/b.block)
		calls := 80 * iters / b.block
		d := timeLoop(calls, func(i int) {
			base := (i % blocks) * b.block
			for j := range refs {
				refs[j] = int32((base + j) % arena.Len()) // wraps only in an arena smaller than a block
			}
			fail(arena.BoundsBlock(qctx, refs, true, lb, ub))
		})
		put(b.name, ns(d)/float64(b.block), calls*b.block)
	}

	// The scan-shaped families at the engine, on the side pass's own
	// requests, so each sits beside its client-observed s2.* latency.
	ctx := context.Background()
	db := p.engine.BurstDB(core.Short)
	qbb := ofFamily(t.side, famQBB)
	put("burstdb.qbb_us", us(timeLoop(len(qbb), func(i int) {
		id := qbb[i].id % p.engine.Len() // shard 0 holds a slice of the corpus
		m, _, _, e := db.QueryByBurstLimited(p.engine.BurstsOf(id, core.Short), 10, int64(id), burstdb.PlanAuto, nil)
		sink = m
		fail(e)
	})), len(qbb))
	for _, s := range []struct{ name, family string }{{"dtw.query_ms", famDTW}, {"periods.query_ms", famPeriods}} {
		reqs := ofFamily(t.side, s.family)
		put(s.name, ms(timeLoop(len(reqs), func(i int) {
			_, e := p.searcher.Query(ctx, coreRequest(c, reqs[i]))
			fail(e)
		})), len(reqs))
	}

	// Index construction on the whole corpus, and insertion into a dynamic
	// tree of at most 4096 objects.
	ids := make([]int, rows)
	for i := range ids {
		ids[i] = i
	}
	start := time.Now()
	if _, e := vptree.Build(specs, ids, vptree.Options{Budget: 16}); e != nil {
		return nil, e
	}
	put("vptree.build_s", time.Since(start).Seconds(), 0)
	const inserts = 32
	dynN := min(rows, 4096) - inserts
	dyn, e := vptree.Build(specs[:dynN], ids[:dynN], vptree.Options{Budget: 16, Dynamic: true})
	if e != nil {
		return nil, e
	}
	put("vptree.insert_us", us(timeLoop(inserts, func(i int) { fail(dyn.Insert(specs[dynN+i], dynN+i)) })), inserts)

	ac := admit.New(admit.Options{}, obs.NewRegistry())
	put("admit.acquire_ns", ns(timeLoop(100*iters, func(int) {
		release, _, e := ac.Acquire(ctx)
		fail(e)
		release()
	})), 100*iters)
	for _, d := range []struct {
		name string
		post bool
	}{{"core.decode_get_ns", false}, {"core.decode_post_ns", true}} {
		forms := make([]request, len(t.all))
		for i, r := range t.all {
			forms[i] = newRequest(c, r.family, r.id, r.k, d.post)
		}
		put(d.name, ns(timeLoop(10*iters, func(i int) {
			r := forms[i%len(forms)]
			v, ve := core.DecodeV2Request(r.method(), r.query, r.body)
			sink = v
			if ve != nil {
				fail(ve)
			}
		})), 10*iters)
	}

	// What the observability hub costs a query: the same engine without
	// one, where the front door (not the index) is what is measured.
	if !t.w.openLoop {
		put("obs.hub_cost_us", 0, 0)
		return out, err
	}
	bare, e := core.NewEngine(c.data, core.Config{Budget: 16})
	if e != nil {
		return nil, e
	}
	defer bare.Close()
	run := func(s core.Searcher) time.Duration {
		return timeLoop(4*len(t.reqs), func(i int) {
			_, e := s.Query(ctx, coreRequest(c, t.reqs[i%len(t.reqs)]))
			fail(e)
		})
	}
	run(bare) // warm-up
	without := run(bare)
	put("obs.hub_cost_us", us(run(p.searcher)-without), 4*len(t.reqs))
	return out, err
}
