// Package shard is the horizontal scaling layer: a ShardedEngine that
// partitions series across N independent core.Engine shards (each with its
// own feature arena, sequence store and burst tables) by a stable hash of the
// sequence ID, fans every Query out to all shards concurrently
// and gathers the per-shard answers with a tie-preserving top-k merge. An
// index search fans out in two waves: the shards after the first
// Config.Workers start from the first wave's k-th distance (seedOf).
//
// The merge contract is exact, not approximate: every kNN family ranks its
// results in canonical (distance, ID) lexicographic order — tree-shape
// independent — and shard-local IDs are assigned in ascending global-ID
// order, so concatenating per-shard top-k lists and sorting by
// (distance, global ID) reproduces the single-engine answer byte for byte,
// duplicate distances included. Burst matches merge the same way under
// (score desc, global ID asc). The sharding equivalence suite
// (equivalence_test.go) proves this for every request kind.
//
// Budgets and cancellation reuse the intra-engine machinery wholesale: one
// parent lifecycle.Gate is Split across the shards, each shard runs its
// sub-query under a child gate via core.Engine.QueryGated, and the children
// are Absorbed back — aggregate work stays within the request's budget and
// a truncation in any shard marks the merged response Truncated. See
// docs/sharding.md.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/series"
)

// route maps a global sequence ID onto one of n shards with a stable
// integer hash (the splitmix64 finalizer). It is total — every (id, n>0)
// pair yields a shard in [0, n) — and pure, so the owner of an ID never
// changes for a fixed shard count.
func route(id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	z := id + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// location is one global ID's place in the partition.
type location struct {
	shard int // which shard owns the sequence
	local int // its sequence ID within that shard's engine
}

// ShardedEngine serves the whole core.Searcher surface over N partitions.
//
// The partition is fixed at construction: nothing writes the routing tables
// afterwards, so any number of queries read them at once without a lock.
type ShardedEngine struct {
	cfg    core.Config    // per-shard template (Shards retained for reporting)
	src    core.Source    // the original series every shard reads a view of
	shards []*core.Engine // nil entries: shards that never received a series
	loc    []location     // global ID -> owner
	global [][]int        // per shard: local ID -> global ID (ascending)
	names  []string
	byName map[string]int
	seqLen int

	hub *obs.Hub
	env *core.Envelope // the request lifecycle every Query runs in
	met shardMetrics

	scatters atomic.Int64 // scatter fan-outs performed
	gatherNS atomic.Int64 // cumulative wall time in the gather/merge stage
}

var _ core.Searcher = (*ShardedEngine)(nil)

// shardMetrics are the scatter-gather instruments (nil-safe like core's).
type shardMetrics struct {
	scatterTotal *obs.Counter
	gatherLat    *obs.Timer
	queryErrors  *obs.Counter
}

func newShardMetrics(reg *obs.Registry) shardMetrics {
	return shardMetrics{
		scatterTotal: reg.Counter("shard_scatter_total", "queries fanned out across engine shards"),
		gatherLat:    reg.Timer("shard_gather_seconds", "time merging per-shard answers into the final top-k"),
		queryErrors:  reg.Counter("shard_query_errors_total", "scattered shard sub-queries that returned an error (a request that fails before its scatter is not counted)"),
	}
}

// newSharded builds a sharded engine over the series src holds, partitioned
// across cfg.Shards (minimum 1) independent engine shards. Series are routed
// by route over their global ID (their index in src), and each shard's engine
// reads a view of src holding its own, in ascending global ID. A shard the
// hash leaves empty stays dormant: queries skip it. A sharded engine takes no
// inserts, so it refuses DynamicIndex. The engine owns src: its Close closes
// it, and so does a failed build.
func newSharded(src core.Source, cfg core.Config) (_ *ShardedEngine, err error) {
	defer func() {
		if err != nil {
			src.Close() //nolint:errcheck // the build's error is the one reported
		}
	}()
	if src.Len() == 0 {
		return nil, errors.New("shard: empty dataset")
	}
	if cfg.DynamicIndex {
		return nil, errors.New("shard: DynamicIndex needs a single engine (Shards <= 1)")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) // core's default, which sets the first wave's width
	}
	s := &ShardedEngine{
		cfg:    cfg,
		src:    src,
		shards: make([]*core.Engine, n),
		global: make([][]int, n),
		byName: make(map[string]int, src.Len()),
		seqLen: src.SeqLen(),
		hub:    cfg.Obs,
		met:    newShardMetrics(cfg.Obs.Registry()),
	}
	s.env = core.NewEnvelope(cfg.Obs, s, s.locate, true)
	for gid := range src.Len() {
		sh := route(uint64(gid), n)
		s.loc = append(s.loc, location{shard: sh, local: len(s.global[sh])})
		s.global[sh] = append(s.global[sh], gid)
		name := src.Name(gid)
		s.names = append(s.names, name)
		if _, dup := s.byName[name]; !dup {
			s.byName[name] = gid
		}
	}
	shardCfg := cfg // every shard's engine config: the template, unsharded
	shardCfg.Shards = 0
	for sh, ids := range s.global {
		if len(ids) == 0 {
			continue
		}
		eng, err := core.NewEngineFrom(view{src, ids}, shardCfg)
		if err != nil {
			s.closeShards() //nolint:errcheck // best-effort cleanup of earlier shards
			return nil, fmt.Errorf("shard: building shard %d: %w", sh, err)
		}
		s.shards[sh] = eng
	}
	return s, nil
}

// view is one shard's core.Source: the series of src at the global IDs ids,
// local ID i being ids[i]. The sharded engine owns src, so a view's Close
// leaves it open.
type view struct {
	src core.Source
	ids []int
}

func (v view) Len() int                                       { return len(v.ids) }
func (v view) SeqLen() int                                    { return v.src.SeqLen() }
func (v view) Name(i int) string                              { return v.src.Name(v.ids[i]) }
func (v view) Values(i int, buf []float64) ([]float64, error) { return v.src.Values(v.ids[i], buf) }
func (v view) Series(i int) (*series.Series, error)           { return v.src.Series(v.ids[i]) }
func (v view) Close() error                                   { return nil }

// NewFromConfig builds whichever engine cfg.Shards asks for over data:
// NewFromSource over core.SliceSource(data).
func NewFromConfig(data []*series.Series, cfg core.Config) (core.Searcher, error) {
	return NewFromSource(core.SliceSource(data), cfg)
}

// NewFromSource builds whichever engine cfg.Shards asks for over the series
// src holds: the plain single core.Engine for Shards <= 1 (bit-for-bit
// today's behaviour), a ShardedEngine otherwise. This is the one switch
// serving layers should use, so a sharding config can never silently bypass
// the partition. The engine owns src (see core.NewEngineFrom).
func NewFromSource(src core.Source, cfg core.Config) (core.Searcher, error) {
	if cfg.Shards <= 1 {
		return core.NewEngineFrom(src, cfg)
	}
	return newSharded(src, cfg)
}

// Shards returns the configured shard count.
func (s *ShardedEngine) Shards() int { return len(s.shards) }

// Engine exposes shard sh's engine (nil if dormant) for tests and stats.
func (s *ShardedEngine) Engine(sh int) *core.Engine { return s.shards[sh] }

// Owner reports which shard owns global sequence id (and its local ID
// there). ok is false for unknown IDs.
func (s *ShardedEngine) Owner(id int) (shard, local int, ok bool) {
	if id < 0 || id >= len(s.loc) {
		return 0, 0, false
	}
	l := s.loc[id]
	return l.shard, l.local, true
}

// Len returns the number of indexed series across all shards.
func (s *ShardedEngine) Len() int {
	return len(s.loc)
}

// SeqLen returns the fixed series length.
func (s *ShardedEngine) SeqLen() int { return s.seqLen }

// Name returns the query term of global sequence id ("" if unknown).
func (s *ShardedEngine) Name(id int) string {
	if id < 0 || id >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// Lookup resolves a query term to its global sequence ID.
func (s *ShardedEngine) Lookup(name string) (int, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// Series returns the original (unstandardized) series of global id.
func (s *ShardedEngine) Series(id int) (*series.Series, error) {
	eng, local, ok := s.locate(id)
	if !ok {
		return nil, core.NoSequence(id)
	}
	return eng.Series(local)
}

// StandardizedValues returns the stored z-scored values of global id.
func (s *ShardedEngine) StandardizedValues(id int) ([]float64, error) {
	eng, local, ok := s.locate(id)
	if !ok {
		return nil, core.NoSequence(id)
	}
	return eng.StandardizedValues(local)
}

// locate is the sharded engine's core.Locator: the shard owning global
// sequence id and the sequence's local ID there.
func (s *ShardedEngine) locate(id int) (*core.Engine, int, bool) {
	sh, local, ok := s.Owner(id)
	return s.shards[sh], local, ok
}

// Tracer exposes the tracer queries run under (nil-safe, may be nil).
func (s *ShardedEngine) Tracer() *obs.Tracer { return s.hub.Tracer() }

// Hub returns the observability hub the engine was built with (nil when
// observability is disabled).
func (s *ShardedEngine) Hub() *obs.Hub { return s.hub }

// Close releases every shard's resources and the source they read,
// returning the first error.
func (s *ShardedEngine) Close() error {
	return errors.Join(s.closeShards(), s.src.Close())
}

// closeShards closes every live shard's engine, returning the first error.
func (s *ShardedEngine) closeShards() error {
	var first error
	for _, eng := range s.shards {
		if eng == nil {
			continue
		}
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GatherStats is the cumulative scatter-gather accounting BENCH's sharding
// section reports.
type GatherStats struct {
	// Scatters counts queries fanned out across the shards.
	Scatters int64
	// GatherNS is the total wall time spent in the gather/merge stage.
	GatherNS int64
}

// GatherStats returns the engine's cumulative scatter/gather accounting.
func (s *ShardedEngine) GatherStats() GatherStats {
	return GatherStats{Scatters: s.scatters.Load(), GatherNS: s.gatherNS.Load()}
}

// ShardSizes returns the per-shard series counts (0 for dormant shards) —
// the partition-skew input of BENCH's sharding section.
func (s *ShardedEngine) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for sh := range s.shards {
		out[sh] = len(s.global[sh])
	}
	return out
}

// ---------------------------------------------------------------------------
// Scatter-gather query path

// Query fans one request out to every live shard and merges the answers
// into the exact single-engine result (see the package comment for the
// merge contract). It runs core.Engine.Query's lifecycle, core.Envelope:
// one trace with a span per shard, one wide event ("sharded_<kind>"), one
// explain report at most.
func (s *ShardedEngine) Query(ctx context.Context, req core.Request) (*core.Response, error) {
	return s.env.Run(ctx, req, s.scatter)
}

// scatter is the sharded engine's core.QueryBody: it fans the query the
// Envelope resolved out to every live shard under Split child gates, absorbs
// them and merges.
func (s *ShardedEngine) scatter(ctx context.Context, g *lifecycle.Gate, req core.Request, q *core.Resolved) (*core.Response, []int64, error) {
	obs.SpanFromContext(ctx).Annotate("shards", strconv.Itoa(len(s.shards)))
	live := make([]int, 0, len(s.shards))
	for sh, eng := range s.shards {
		if eng != nil {
			live = append(live, sh)
		}
	}
	if len(live) == 0 {
		return nil, nil, errors.New("shard: no live shards")
	}

	s.met.scatterTotal.Inc()
	s.scatters.Add(1)
	kids := g.Split(len(live))
	resps := make([]*core.Response, len(live))
	errs := make([]error, len(live))
	// An index search fans out in two waves: the first Config.Workers live
	// shards, then the rest, each of which starts its σ_UB and its refine
	// from the first wave's seed (see seedOf). Every other kind runs one.
	wave1 := len(live)
	if q.Indexed() {
		wave1 = min(max(s.cfg.Workers, 1), len(live))
	}
	sp := obs.SpanFromContext(ctx)
	sp.Annotate("wave1", strconv.Itoa(wave1))
	for lo, hi := 0, wave1; lo < len(live); lo, hi = hi, len(live) {
		if lo > 0 && slices.ContainsFunc(errs[:lo], func(err error) bool { return err != nil }) {
			break // the request fails: nothing waits for the second wave
		}
		if seed, ok := seedOf(resps[:lo], req.K); ok {
			sp.Annotate("seed", strconv.FormatFloat(seed, 'g', -1, 64))
			for i := lo; i < hi; i++ {
				kids[i] = kids[i].Seeded(seed)
			}
		}
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = s.shards[live[i]].QueryGated(ctx, req, q, kids[i])
			}(i)
		}
		wg.Wait()
	}
	g.Absorb(kids...)
	var failed error
	for _, err := range errs {
		if err != nil {
			s.met.queryErrors.Inc()
			if failed == nil {
				failed = err
			}
		}
	}
	if failed != nil {
		return nil, nil, failed
	}

	gatherStart := time.Now()
	defer s.met.gatherLat.Start()()
	resp := &core.Response{Truncated: g.Truncated()}
	if req.Explain {
		resp.Explain = &core.ExplainReport{}
	}
	spread := make([]int64, len(live))
	for i, r := range resps {
		spread[i] = int64(len(r.Neighbors) + len(r.Matches))
		resp.Stats.Add(r.Stats)
		for _, n := range r.Neighbors {
			n.ID = s.global[live[i]][n.ID]
			resp.Neighbors = append(resp.Neighbors, n)
		}
		for _, m := range r.Matches {
			m.ID = s.global[live[i]][m.ID]
			resp.Matches = append(resp.Matches, m)
		}
		if req.Explain {
			resp.Explain.Shards = append(resp.Explain.Shards, r.Explain)
		}
	}
	// The canonical orders every shard ranks its own answer in: neighbours
	// by (distance, global ID), burst matches by score descending, then
	// global ID ascending.
	sort.Slice(resp.Neighbors, func(a, b int) bool {
		na, nb := resp.Neighbors[a], resp.Neighbors[b]
		return na.Dist < nb.Dist || na.Dist == nb.Dist && na.ID < nb.ID
	})
	sort.Slice(resp.Matches, func(a, b int) bool {
		ma, mb := resp.Matches[a], resp.Matches[b]
		return ma.Score > mb.Score || ma.Score == mb.Score && ma.ID < mb.ID
	})
	resp.Neighbors = resp.Neighbors[:min(len(resp.Neighbors), req.K)]
	resp.Matches = resp.Matches[:min(len(resp.Matches), req.K)]
	s.gatherNS.Add(time.Since(gatherStart).Nanoseconds())
	return resp, spread, nil
}

// seedOf is the radius a second wave starts from: the smallest k-th
// neighbour distance among the first wave's responses that hold k
// neighbours (ok is false when none does, or before any wave has run).
// Such a response's k rows are rows the merge could keep — a by-ID search
// asks for K+1 so that the query's own series, which the Envelope drops
// after the merge, is counted once at most — so every row of the merged
// answer lies at or within the seed, and a second-wave shard that drops only
// rows provably farther (lifecycle.Gate.Seeded) still returns each of its
// answer rows.
func seedOf(resps []*core.Response, k int) (seed float64, ok bool) {
	seed = math.Inf(1)
	for _, r := range resps {
		if r != nil && len(r.Neighbors) == k {
			seed, ok = min(seed, r.Neighbors[k-1].Dist), true
		}
	}
	return seed, ok
}
