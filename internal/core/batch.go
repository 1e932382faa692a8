package core

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/vptree"
)

// batchQueue is one worker's slice of the batch: a contiguous index range
// [next, end) claimed atomically in blocks by the owner and, once another
// worker runs dry, by thieves. Padding keeps two workers' cursors off one
// cache line — the cursor is the only contended word in the pool's hot path.
type batchQueue struct {
	next atomic.Int64
	end  int64
	_    [48]byte // pad the 16 bytes above to a 64-byte line
}

// batchBlockSize is the scheduling granule: workers claim contiguous blocks
// of up to this many queries per cursor bump instead of one at a time. The
// coarser granule amortizes the atomic op and — with the yield between
// blocks — bounds how far ahead any one worker can run before siblings get
// scheduled, which is what fixes the single-owner pathology (one goroutine
// executing the whole batch while the rest only steal) on machines where
// goroutines outnumber GOMAXPROCS.
const batchBlockSize = 8

// remaining returns how many indices are still unclaimed (never negative:
// concurrent claims can push next past end).
func (q *batchQueue) remaining() int64 {
	if r := q.end - q.next.Load(); r > 0 {
		return r
	}
	return 0
}

// popBlock claims up to max contiguous indices and returns them as [lo, hi);
// hi <= lo means the queue is drained. A single fetch-add claims the block,
// so concurrent claimants always receive disjoint ranges; over-claiming past
// end is harmless (remaining() clamps at zero).
func (q *batchQueue) popBlock(max int64) (lo, hi int64) {
	claimed := q.next.Add(max)
	lo = claimed - max
	if lo >= q.end {
		return lo, -1
	}
	return lo, min(claimed, q.end)
}

// splitBatch partitions n tasks into per-worker contiguous [lo, hi) ranges.
// Ceil division gives the first workers one extra task when the split is
// uneven; the ranges tile [0, n) exactly and each holds at most
// ceil(n/workers) tasks.
func splitBatch(n, workers int) [][2]int {
	parts := make([][2]int, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*chunk, n)
		hi := min(lo+chunk, n)
		parts[w] = [2]int{lo, hi}
	}
	return parts
}

// BatchSearchCtx answers one similarity search per query in queries,
// fanning the batch across a pool of Config.Workers goroutines. out[i]
// holds the k nearest neighbours of queries[i] — exactly what a KindSimilar
// Query returns for the same input, regardless of the worker count
// or scheduling order. Per-worker vptree.Stats are merged into one batch
// total. On error the first failing query (by batch position) determines
// the returned error; the merged stats still account for all work done.
// Cancelling ctx aborts the batch: workers stop picking up new queries and
// in-flight searches fail fast, so the call returns promptly with ctx's
// error.
//
// Scheduling is work-stealing: each worker owns a contiguous slice of the
// batch and, once its own slice drains, steals single queries from the
// worker with the most left. Every worker attributes its own tasks,
// steals, busy/idle time and nodes visited into a private delta flushed
// lock-free into the engine's per-worker shards on completion (see
// Engine.WorkerStats and docs/observability.md).
//
// The whole batch runs under one read lock, so it observes a single
// consistent snapshot of the engine even with a concurrent writer queued.
func (e *Engine) BatchSearchCtx(ctx context.Context, queries [][]float64, k int) ([][]Neighbor, vptree.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, vptree.Stats{}, errors.New("core: k must be >= 1")
	}
	if len(queries) == 0 {
		return nil, vptree.Stats{}, nil
	}
	start := time.Now()
	e.met.batchTotal.Inc()
	e.met.batchQueries.Add(int64(len(queries)))
	ctx, rid := obs.EnsureRequestID(ctx)
	// Join the HTTP layer's trace when one owns ctx, else root a fresh
	// engine-owned "batch_search" trace (see Engine.joinTrace).
	tr, fam, ctx, finishTrace := e.joinTrace(ctx, "batch_search")
	defer finishTrace()
	defer e.met.batchLat.StartCtx(ctx)()
	fam.Annotate("request_id", rid)
	fam.Annotate("queries", strconv.Itoa(len(queries)))
	fam.Annotate("k", strconv.Itoa(k))

	lockStart := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	lockWait := time.Since(lockStart)
	e.met.readLockWait.Observe(lockWait)
	e.workers.AddLockWait(lockWait.Nanoseconds())

	workers := e.cfg.Workers
	if workers > len(queries) {
		workers = len(queries)
	}
	fam.Annotate("workers", strconv.Itoa(workers))

	// Partition the batch into contiguous per-worker queues (see splitBatch;
	// the last queue may be short, never empty because workers <= len(queries)).
	queues := make([]batchQueue, workers)
	for w, p := range splitBatch(len(queries), workers) {
		queues[w].next.Store(int64(p[0]))
		queues[w].end = int64(p[1])
	}

	out := make([][]Neighbor, len(queries))
	errs := make([]error, len(queries))
	stats := make([]vptree.Stats, workers)
	deltas := make([]obs.WorkerDelta, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerStart := time.Now()
			var busy time.Duration
			d := &deltas[w]
			run := func(i int, stolen bool) {
				t0 := time.Now()
				if err := ctx.Err(); err != nil {
					// Keep draining so every remaining slot gets the error;
					// claimed-but-unexecuted indices still count as tasks so
					// the spread accounts for every index exactly once.
					errs[i] = err
				} else {
					var st vptree.Stats
					out[i], st, errs[i] = e.searchOneLocked(ctx, queries[i], k)
					stats[w].Add(st)
					d.NodesVisited += int64(st.NodesVisited)
				}
				busy += time.Since(t0)
				d.Tasks++
				if stolen {
					d.Steals++
				}
			}
			// yield parks this goroutine behind runnable siblings between
			// blocks. When the pool is oversubscribed (workers > GOMAXPROCS)
			// this is what keeps one worker from racing through the whole
			// batch before the others are ever scheduled; with a spare core
			// per worker it is a no-op costing one scheduler call per block.
			yield := func() {
				if workers > 1 {
					runtime.Gosched()
				}
			}
			// Phase 1: drain the worker's own queue, one block at a time.
			for {
				lo, hi := queues[w].popBlock(batchBlockSize)
				if hi <= lo {
					break
				}
				for i := lo; i < hi; i++ {
					run(int(i), false)
				}
				yield()
			}
			// Phase 2: steal from the most-loaded queue until every queue is
			// dry, taking half the victim's remainder (capped at one block)
			// per claim. Re-scanning after each block keeps thieves spread
			// over victims instead of stampeding one queue.
			for {
				victim := -1
				var most int64
				for v := range queues {
					if v == w {
						continue
					}
					if r := queues[v].remaining(); r > most {
						victim, most = v, r
					}
				}
				if victim < 0 {
					break
				}
				take := min((most+1)/2, batchBlockSize)
				lo, hi := queues[victim].popBlock(take)
				if hi <= lo {
					continue // lost the race to another thief; re-scan
				}
				for i := lo; i < hi; i++ {
					run(int(i), true)
				}
				yield()
			}
			wall := time.Since(workerStart)
			d.BusyNS = busy.Nanoseconds()
			d.IdleNS = (wall - busy).Nanoseconds()
			if d.IdleNS < 0 {
				d.IdleNS = 0
			}
			// Flush lock-free into the engine-lifetime shards; the slot is
			// owned by this worker index, so no two flushes contend.
			e.workers.Flush(w, *d)
		}(w)
	}
	wg.Wait()
	e.workers.AddBatch()
	e.met.recordPool(deltas)

	var merged vptree.Stats
	for _, st := range stats {
		merged.Add(st)
	}
	e.met.recordSearch(merged)

	spread := make([]int64, workers)
	var steals int64
	for w, d := range deltas {
		spread[w] = d.Tasks
		steals += d.Steals
	}
	ev := obs.WideEvent{
		RequestID:    rid,
		TraceID:      tr.TraceID().String(),
		Time:         start,
		Op:           "batch_search",
		K:            k,
		QueueWaitMS:  0,
		DurationMS:   float64(time.Since(start)) / float64(time.Millisecond),
		NodesVisited: merged.NodesVisited,
		Results:      len(queries),
		Workers:      workers,
		WorkerSpread: spread,
	}
	fam.Annotate("steals", strconv.FormatInt(steals, 10))
	for _, err := range errs { // first error by batch position, deterministically
		if err != nil {
			ev.Error = err.Error()
			ev.Abort = abortCause(err)
			aborted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
			tr.SetOutcome(obs.Outcome{Error: err.Error(), Aborted: aborted})
			e.reqlog.Record(ev)
			return nil, merged, err
		}
	}
	e.reqlog.Record(ev)
	return out, merged, nil
}

// searchOneLocked is one query of a batch: standardize, search the index,
// resolve names. Caller holds the read lock. Each query gets its own gate
// so a cancelled ctx aborts mid-traversal; with a background ctx the gate
// is nil and the path costs nothing extra.
func (e *Engine) searchOneLocked(ctx context.Context, values []float64, k int) ([]Neighbor, vptree.Stats, error) {
	z, err := e.standardizeQuery(values)
	if err != nil {
		return nil, vptree.Stats{}, err
	}
	q, err := e.prepare(z)
	if err != nil {
		return nil, vptree.Stats{}, err
	}
	g := lifecycle.NewGate(ctx, lifecycle.Limits{})
	res, st, _, err := e.searchIndexLimited(ctx, q, k, g, nil)
	if err != nil {
		return nil, st, err
	}
	return e.toNeighborsLocked(res), st, nil
}
