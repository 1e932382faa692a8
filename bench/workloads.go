package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/series"
)

// workload is one traffic mix on one corpus. The five below are the
// benchmark; their names are what later changes cite.
type workload struct {
	name, why string
	series    int // corpus size at the full tier
	shards    int // >1 runs `s2 -shards N`
	inProcess bool
	// requests builds the seeded request list.
	requests func(c *corpus, rng *rand.Rand, smoke bool) []request
	// openLoop gives the first half of the window to an open loop at a
	// fixed rate (front_door); the rest is the closed loop.
	openLoop bool
}

var workloads = []*workload{
	{
		name: "paper_knn", series: 16384, shards: 1,
		why: "fig. 22-23 regime: one engine, 16384 x 1024, exact k=10 kNN; traversal, bound kernels and refine dominate, so index changes show here and front-door changes must not",
		requests: func(c *corpus, rng *rand.Rand, smoke bool) []request {
			return spreadRequests(c, rng, famSimilar, 0, listLen(1500, smoke), 10, false)
		},
	},
	{
		name: "sharded_knn", series: 4096, shards: 8,
		why: "s2 -shards 8 over 4096 x 1024: 512 series a shard makes per-shard fixed cost (query FFT, gate split, trace, gather) and 8-way fan-out on 2 cores a visible share",
		requests: func(c *corpus, rng *rand.Rand, smoke bool) []request {
			return spreadRequests(c, rng, famSimilar, 0, listLen(4000, smoke), 10, false)
		},
	},
	{
		name: "front_door", series: 256, shards: 1, openLoop: true,
		why: "256 x 1024, k=5, GET and POST alternating, open loop at 1000 req/s then closed loop: Engine.Query is the minority, so net/http, admission, decode, telemetry and JSON encode dominate; index work flat",
		requests: func(c *corpus, rng *rand.Rand, smoke bool) []request {
			return spreadRequests(c, rng, famSimilar, 0, listLen(8000, smoke), 5, true)
		},
	},
	{
		name: "families", series: 2048, shards: 1,
		why: "2048 x 1024, one interleaved mix of qbb, linear scan, streamed similar, DTW and period search: the paper's other contributions use the shared layers scan-shaped, so a kNN gain that taxes them shows",
		requests: func(c *corpus, rng *rand.Rand, smoke bool) []request {
			return familyMix(c, rng, listLen(8000, smoke))
		},
	},
	{
		name: "ingest_mix", series: 4096, shards: 1, inProcess: true,
		why: "in-process DynamicIndex engine (cmd/s2 has no ingest route), 4096 x 1024: one writer calling Add back to back beside one closed-loop kNN reader; Add rebuilds the flat mirror under the write lock",
		requests: func(c *corpus, rng *rand.Rand, smoke bool) []request {
			return spreadRequests(c, rng, famSimilar, 0, listLen(4000, smoke), 10, false)
		},
	},
}

// Load shape shared by the served workloads.
const (
	clients        = 2    // closed-loop callers (the issue's min(2, nproc) keep-alive connections)
	warmupRequests = 300  // sent before any timing
	setupRepeats   = 3    // boots (or engine builds) per run; setup_s is their median
	openLoopRate   = 1000 // requests per second offered in front_door's open-loop phase
	openWorkers    = 16   // senders of the open loop: enough that a free one always exists
	smokeSeries    = 256
)

func listLen(n int, smoke bool) int {
	if smoke {
		return n / 20
	}
	return n
}

func (w *workload) size(cfg config) int {
	if cfg.smoke && w.series > smokeSeries {
		return smokeSeries
	}
	return w.series
}

// tracedCount is the length of the traced run's main list: 300 requests,
// half that on the largest corpus, where every request is replayed seven
// times at ~11 ms (the issue's fallback to stay inside the time cap).
func (w *workload) tracedCount(cfg config) int {
	switch {
	case cfg.smoke:
		return 30
	case w.series > 8192:
		return tracedRequests / 2
	}
	return tracedRequests
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runWorkload performs one run of one workload in the configured mode.
func runWorkload(ctx context.Context, w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	var err error
	switch {
	case cfg.trace == 1:
		err = runTraced(ctx, w, cfg, res)
	case w.inProcess:
		err = runIngest(w, cfg, res)
	default:
		err = runServed(ctx, w, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	if err := res.finish(); err != nil {
		return nil, err
	}
	return res, writeRecord(res, cfg)
}

// writeRecord keeps the run's full record (environment, sample counts,
// notes) next to the trace and server logs.
func writeRecord(res *result, cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", res.Workload, res.Trace)), raw, 0o644)
}

// prepare generates and writes the workload's corpus and request list.
func prepare(w *workload, cfg config) (*corpus, []request, time.Duration, error) {
	start := time.Now()
	c := newCorpus(w.size(cfg), cfg.days(), cfg.seed)
	if err := c.write(filepath.Join(cfg.buildDir, "data", w.name+".bin")); err != nil {
		return nil, nil, 0, err
	}
	datagen := time.Since(start)
	reqs := w.requests(c, rand.New(rand.NewSource(cfg.seed)), cfg.smoke)
	return c, reqs, datagen, nil
}

// runServed is the untraced, timed run of a served workload.
func runServed(ctx context.Context, w *workload, cfg config, res *result) error {
	c, reqs, _, err := prepare(w, cfg)
	if err != nil {
		return err
	}
	hc := newHTTPClient(openWorkers)
	defer hc.CloseIdleConnections()
	logPath := filepath.Join(cfg.outDir, "s2-"+w.name+".log")

	// Set-up is measured setupRepeats times; the last boot serves the run.
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		if srv, err = bootServer(ctx, cfg.s2, c.path, w.shards, logPath, hc); err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer srv.kill()
	pid := srv.cmd.Process.Pid

	g := &loadgen{hc: hc, base: srv.base, reqs: reqs, epoch: time.Now()}
	warm := g.closed(clients, 0, min(warmupRequests, len(reqs)), 0)

	window := time.Duration(cfg.seconds) * time.Second
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	var open, closed []sample
	if w.openLoop {
		open = g.open(openLoopRate, window/2, openWorkers, 0)
		closed = g.closed(clients, len(open), 0, window-window/2)
	} else {
		closed = g.closed(clients, 0, 0, window)
	}
	if err := ctx.Err(); err != nil {
		return err // interrupted: the deferred kill stops the server
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	timed := append(append([]sample(nil), open...), closed...)
	v := verify(reqs, append(warm, timed...), c.z, cfg.seed)
	res.count(v)
	res.note("oracle checked %d kNN answers", v.oracleChecked)

	latSrc := closed
	if w.openLoop {
		latSrc = open
		late := sortedCopy(sendLateMS(open))
		res.note("open loop %d req/s for %v: send lateness p50 %.3f p99 %.3f ms", openLoopRate, window/2, percentile(late, 0.5), percentile(late, 0.99))
	}
	lat, thr := summarize(timings(latSrc)), summarize(timings(closed))
	res.setSummary(lat, thr.rate, thr.n)
	res.set("setup_s", median(setups), len(setups))
	res.set("cpu_ms_per_req", ms(cpu1-cpu0)/float64(len(timed)), len(timed))
	res.set("rss_mb", rss, 0)
	return nil
}

// sendLateMS is how late after its due time each open-loop request was
// actually sent: the load generator's own error.
func sendLateMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.sent - s.due)
	}
	return out
}

// ingestRound is one measured round of ingest_mix: a fresh engine, one
// writer adding held-out series back to back for the window, one reader in
// a closed loop of kNN queries until the writer ends.
type ingestRound struct {
	setup  time.Duration
	wall   time.Duration
	engine *core.Engine
	adds   []interval // one per Engine.Add, in order
	reads  []interval // one per Query, in order
	answer []ingestRead
	addErr error
}

// interval is the start and end of one timed call.
type interval struct{ start, end time.Time }

// timingsSince converts intervals to timings relative to epoch.
func timingsSince(epoch time.Time, iv []interval) []timing {
	out := make([]timing, len(iv))
	for i, v := range iv {
		out[i] = timing{at: v.start.Sub(epoch), lat: v.end.Sub(v.start)}
	}
	return out
}

// latenciesMS lists the timings' latencies in ms.
func latenciesMS(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.lat)
	}
	return out
}

type ingestRead struct {
	req  int
	resp *core.Response
	err  error
}

func runIngestRound(c *corpus, reqs []request, held []*series.Series, window time.Duration) (*ingestRound, error) {
	r := &ingestRound{}
	start := time.Now()
	eng, err := core.NewEngine(c.data, core.Config{DynamicIndex: true, Obs: obs.NewHub()})
	if err != nil {
		return nil, fmt.Errorf("NewEngine: %w", err)
	}
	r.setup, r.engine = time.Since(start), eng

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	begin := time.Now()
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for _, s := range held {
			if time.Since(begin) >= window {
				return
			}
			t := time.Now()
			if _, err := eng.Add(s); err != nil {
				r.addErr = err
				return
			}
			r.adds = append(r.adds, interval{t, time.Now()})
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			q := reqs[i%len(reqs)]
			t := time.Now()
			resp, err := eng.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: q.id, K: q.k})
			e := time.Now()
			r.reads = append(r.reads, interval{t, e})
			r.answer = append(r.answer, ingestRead{i % len(reqs), resp, err})
		}
	}()
	wg.Wait()
	r.wall = time.Since(begin)
	if r.addErr != nil {
		eng.Close()
		return nil, fmt.Errorf("Engine.Add: %w", r.addErr)
	}
	return r, nil
}

// toWire converts an engine answer to the wire shape the checks read.
func toWire(resp *core.Response) []wireResult {
	out := make([]wireResult, len(resp.Neighbors))
	for i, n := range resp.Neighbors {
		out[i] = wireResult{ID: n.ID, Name: n.Name, Dist: n.Dist}
	}
	return out
}

// verifyIngest checks a round: every concurrent read structurally (the
// corpus it saw is unknown, so not against the oracle), then — the engine
// now quiet — a seeded one-in-sixteen sample of series, old and added,
// against the brute-force oracle over the grown corpus.
func verifyIngest(r *ingestRound, c *corpus, reqs []request, held []*series.Series, seed int64) *verdict {
	v := &verdict{}
	for _, rd := range r.answer {
		v.attempted++
		if rd.err != nil {
			v.fail(fmt.Errorf("read %d: %w", rd.req, rd.err))
			continue
		}
		if rd.resp.Truncated || rd.resp.Approximate {
			v.fail(fmt.Errorf("read %d truncated or approximate", rd.req))
			continue
		}
		if err := checkResults(reqs[rd.req], toWire(rd.resp)); err != nil {
			v.fail(fmt.Errorf("read %d: %w", rd.req, err))
		}
	}
	z := append([][]float64(nil), c.z...)
	for _, s := range held[:len(r.adds)] {
		z = append(z, s.Standardized().Values)
	}
	if r.engine.Len() != len(z) {
		v.attempted++
		v.fail(fmt.Errorf("engine holds %d series after %d adds to %d", r.engine.Len(), len(r.adds), len(c.z)))
		return v
	}
	// The added tail is sampled densely enough to be covered even when few
	// series were added; the old corpus one in sixteen of a 256-id window.
	var ids []int
	for id := int(uint64(seed) % oracleStride); id < len(z) && len(ids) < 16; id += oracleStride {
		ids = append(ids, id)
	}
	for id := len(z) - 1; id >= len(c.z) && len(ids) < 32; id -= oracleStride {
		ids = append(ids, id)
	}
	for _, id := range ids {
		v.attempted++
		v.oracleChecked++
		resp, err := r.engine.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: id, K: 10})
		if err != nil {
			v.fail(fmt.Errorf("post-add query %d: %w", id, err))
			continue
		}
		if err := matchesOracle(toWire(resp), bruteKNN(z, id, 10)); err != nil {
			v.fail(fmt.Errorf("post-add query %d: %w", id, err))
		}
	}
	return v
}

// runIngest is the untraced, timed run of ingest_mix: setupRepeats rounds,
// each with its own engine build (the set-up sample) and a third of the
// window.
func runIngest(w *workload, cfg config, res *result) error {
	c, reqs, _, err := prepare(w, cfg)
	if err != nil {
		return err
	}
	window := time.Duration(cfg.seconds) * time.Second / setupRepeats
	held := heldOut(len(c.data), heldOutCount(cfg), cfg.days(), cfg.seed)
	pid := os.Getpid()

	var setups []float64
	var adds, reads []timing
	epoch := time.Now()
	var cpu, wall time.Duration
	ops := 0
	for i := 0; i < setupRepeats; i++ {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return err
		}
		r, err := runIngestRound(c, reqs, held, window)
		if err != nil {
			return err
		}
		cpu1, err := cpuTime(pid)
		if err != nil {
			return err
		}
		// Building the engine is set-up, not measured work: only the
		// round's share of the CPU time after the build is kept.
		cpu += time.Duration(float64(cpu1-cpu0) * r.wall.Seconds() / (r.wall + r.setup).Seconds())
		v := verifyIngest(r, c, reqs, held, cfg.seed)
		res.count(v)
		r.engine.Close()
		setups = append(setups, r.setup.Seconds())
		adds = append(adds, timingsSince(epoch, r.adds)...)
		reads = append(reads, timingsSince(epoch, r.reads)...)
		wall += r.wall
		ops += len(r.adds) + len(r.reads)
		res.note("round %d: %d adds, %d reads, %d oracle checks", i+1, len(r.adds), len(r.reads), v.oracleChecked)
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	res.note("add p50 %.3f ms over %d adds", median(latenciesMS(adds)), len(adds))
	res.setSummary(summarize(reads), float64(ops)/wall.Seconds(), ops)
	res.set("setup_s", median(setups), len(setups))
	res.set("cpu_ms_per_req", ms(cpu)/float64(ops), ops)
	res.set("rss_mb", rss, 0)
	return nil
}

// heldOutCount bounds how many series a round may add: far more than fit
// in its window at today's Add cost, so the window, not the list, ends it.
func heldOutCount(cfg config) int {
	if cfg.smoke {
		return 64
	}
	return 600 * cfg.seconds / setupRepeats
}
