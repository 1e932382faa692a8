// Package core is the public face of the query-mining system: an Engine
// that owns a collection of query-demand time series and exposes the three
// capabilities of the paper's S2 tool (§7.5):
//
//   - similarity search over compressed spectral features, fig. 11's
//     filter-and-refine over every feature in sequence-ID order (with a
//     linear-scan baseline),
//   - automatic discovery of important periods,
//   - burst detection and 'query-by-burst' via the relational burst store.
//
// Construction standardizes every series (the paper z-scores all data),
// computes spectra, compresses them at the configured budget into one arena,
// and extracts short- and long-term burst features into indexed burst
// databases. The paper's VP-tree is built only on request (Engine.Tree).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/burst"
	"repro/internal/burstdb"
	"repro/internal/knn"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/periods"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/vptree"
)

// Config tunes the engine. The zero value selects the paper defaults. The
// representation (BestMinError at Budget, safe bounds), the burst cutoff and
// peak floor and the period confidence are the paper's and not knobs (a
// loaded engine takes its budget from the directory it loads).
type Config struct {
	// Budget is the per-sequence memory budget c of "2c+1 doubles"
	// (default 16).
	Budget int
	// DynamicIndex lets Engine.Add ingest new series after construction (a
	// live search service appends query terms continuously).
	DynamicIndex bool
	// Shards selects horizontal partitioning: 0 or 1 builds today's
	// single engine, N > 1 asks for N independent engine shards behind a
	// scatter-gather layer. NewEngine itself only ever builds one shard —
	// construct sharded engines with shard.NewFromConfig (internal/shard),
	// which consumes this field; NewEngine and LoadEngine
	// reject Shards > 1 so a sharding config can never silently degrade to
	// a single unpartitioned engine.
	Shards int
	// Workers bounds the goroutines used by the parallel linear scan and by
	// the build's derive stage (default runtime.GOMAXPROCS(0)), and on a sharded
	// engine sets the width of an index search's first wave: how many
	// shards search before the rest start from their k-th distance (see
	// docs/sharding.md). Set to 1 to force the scan and the build serial;
	// results are identical either way (see docs/concurrency.md). Only tests
	// set it: the budget-truncation tests need the serial scan's truncation
	// points.
	Workers int
	// Obs, when non-nil, turns on the observability layer: every hot path
	// updates metrics in Obs.Metrics (see docs/observability.md for the
	// names) and records a per-query span trace into Obs.Traces. Nil
	// disables instrumentation at a cost of one nil check per operation.
	Obs *obs.Hub
}

// burstMinPeak filters which detected bursts become stored features: a burst
// qualifies only if its moving average peaks at least this many standard
// deviations above the series mean (z-units). The x·std(MA) cutoff of §6.1 is
// relative to each series' own MA spread, so nearly-flat periodic series
// otherwise contribute swarms of micro-bursts that drown query-by-burst
// rankings (BSim sums over burst pairs).
const burstMinPeak = 0.5

func (c *Config) fill() {
	if c.Budget == 0 {
		c.Budget = 16
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// compress is the feature the engine keeps of spec: the paper's tree's
// (vptree.Compress) at the (filled) Config's budget.
func (c Config) compress(spec *spectral.HalfSpectrum) (*spectral.Compressed, error) {
	return vptree.Compress(spec, vptree.Options{Budget: c.Budget})
}

// BurstWindow selects the short- or long-term burst database.
type BurstWindow int

const (
	// Short is the 7-day moving-average window.
	Short BurstWindow = iota
	// Long is the 30-day moving-average window.
	Long
)

// String implements fmt.Stringer.
func (w BurstWindow) String() string {
	if w == Short {
		return "short(7d)"
	}
	return "long(30d)"
}

// Neighbor is one similarity-search result.
type Neighbor struct {
	// ID is the sequence ID within the engine.
	ID int
	// Name is the query term.
	Name string
	// Dist is the exact Euclidean distance between standardized series.
	Dist float64
	// BoundGap, on an approximate response, is the proven upper bound on
	// this result's relative error: the true distance at this rank is at
	// least Dist/(1+BoundGap). It is 0 on exact responses, and +Inf when
	// the search stopped with no guarantee (ng-approximate mode). See
	// Response.BoundFloor and docs/approx.md.
	BoundGap float64
}

// Engine is the assembled system.
//
// Concurrency: the engine follows a single-writer / many-reader discipline.
// Add takes mu exclusively; every search and lookup entry point takes the
// read lock, so any number of queries run in parallel and a writer waits
// for in-flight readers (and vice versa). Internal helpers suffixed
// "Locked" assume the caller holds mu (in either mode) — public methods
// take the lock exactly once and only ever call Locked internals, never
// each other, which would re-enter the RWMutex and deadlock behind a
// queued writer. See docs/concurrency.md.
type Engine struct {
	mu    sync.RWMutex
	cfg   Config
	names []string
	// size mirrors len(names) for Len, which Query calls on every request:
	// reading it must not queue behind a writer the way mu.RLock does.
	size   atomic.Int64
	byName map[string]int
	src    Source         // original (unstandardized) series
	store  seqstore.Store // standardized values
	// arena holds every sequence's feature (Config.compress), slot i
	// sequence i: what a similarity search scans (knn.Scan). Add appends to
	// it under the write lock.
	arena *spectral.Arena
	scans knn.Totals
	// tree is the paper's VP-tree, built by the first Tree call; no search
	// reads it (see Tree).
	treeOnce sync.Once
	tree     *vptree.Tree
	burstsS  *burstdb.DB // short-window burst features
	burstsL  *burstdb.DB // long-window burst features
	hub      *obs.Hub
	met      engineMetrics
	// env is the request lifecycle every Query runs in.
	env *Envelope
	// buildTimes is where NewEngine's wall time went (see BuildTimes).
	buildTimes struct{ derive, index time.Duration }
	// failNextInsert is what the next Add's arena append returns instead of
	// running (see FailNextIndexInsert); nil almost always.
	failNextInsert error
}

// Searcher is the query surface shared by the single Engine and the
// sharded scatter-gather engine (internal/shard.ShardedEngine): everything
// the serving layer (V2SearchHandler, cmd/s2) needs to resolve names,
// fetch series and run queries, without knowing how many partitions sit
// behind it.
type Searcher interface {
	// Query runs one request (see Engine.Query for the lifecycle contract).
	Query(ctx context.Context, req Request) (*Response, error)
	// Lookup resolves a query term to its sequence ID.
	Lookup(name string) (int, bool)
	// Name returns the query term of a sequence ID ("" if unknown).
	Name(id int) string
	// Series returns the original (unstandardized) series of a sequence.
	Series(id int) (*series.Series, error)
	// StandardizedValues returns the stored z-scored values of a sequence.
	StandardizedValues(id int) ([]float64, error)
	// Len is the number of indexed series; SeqLen the fixed series length.
	Len() int
	SeqLen() int
	// Tracer exposes the tracer queries run under (nil-safe, may be nil).
	Tracer() *obs.Tracer
	// Close releases any disk resources.
	Close() error
}

var _ Searcher = (*Engine)(nil)

// Tracer exposes the engine's tracer (nil without an obs hub; the nil
// tracer is a valid no-op).
func (e *Engine) Tracer() *obs.Tracer { return e.hub.Tracer() }

// wireObs installs the observability hub: registry instruments, per-query
// tracing, store read/write accounting and burst-database counters. Safe
// with hub == nil (everything becomes a no-op).
func (e *Engine) wireObs(hub *obs.Hub) {
	e.hub = hub
	e.met = newEngineMetrics(hub.Registry())
	e.env = NewEnvelope(hub, e, e.locate, false)
	if hub.Registry() != nil {
		e.store = seqstore.Instrument(e.store, hub.Registry())
	}
}

// setBurstDBs installs the short- and long-window burst tables, counting
// into the engine's burstdb metrics.
func (e *Engine) setBurstDBs(short, long *burstdb.DB) {
	e.burstsS, e.burstsL = short, long
	short.SetMetrics(e.met.burstdb)
	long.SetMetrics(e.met.burstdb)
}

// NewEngine builds an engine over the given series: NewEngineFrom over
// SliceSource(data).
func NewEngine(data []*series.Series, cfg Config) (*Engine, error) {
	return NewEngineFrom(SliceSource(data), cfg)
}

// NewEngineFrom builds an engine over the series src holds. All series must
// share one length. The engine keeps src, which it reads its original series
// from (see Source), and stores standardized copies internally, in memory (an
// engine whose rows are on disk is one LoadEngine opened). It owns src from
// here: Close closes it, and so does a failed build. Only a SliceSource takes
// a DynamicIndex, since Add appends to it.
func NewEngineFrom(src Source, cfg Config) (_ *Engine, err error) {
	defer closeOnError(&err, src)
	if src.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("core: Config.Shards=%d needs the scatter-gather layer; build with shard.NewFromConfig (internal/shard)", cfg.Shards)
	}
	if _, ok := src.(*sliceSource); cfg.DynamicIndex && !ok {
		return nil, errors.New("core: Config.DynamicIndex needs a SliceSource, which Add appends to")
	}
	cfg.fill()
	e := &Engine{
		cfg:    cfg,
		byName: make(map[string]int, src.Len()),
		src:    src,
	}
	mem, err := seqstore.NewMemory(src.SeqLen())
	if err != nil {
		return nil, err
	}
	e.store = mem
	e.wireObs(cfg.Obs)

	began := time.Now()
	feats, moments, err := e.deriveAll()
	if err != nil {
		return nil, err
	}
	e.buildTimes.derive = time.Since(began)

	began = time.Now()
	if e.arena, err = spectral.NewArena(feats); err != nil {
		return nil, err
	}
	e.buildTimes.index = time.Since(began)

	// The rows are committed only now, behind one collection that separates
	// the derive's garbage (the features, now packed, and the derivers'
	// buffers) from the rows: without it that garbage would still count
	// towards the heap goal the last build-time collection set, and the rows
	// would be allocated on top of it. Appending the rows inside the derive
	// instead raised the peak (docs/kernels.md, *Fig. 11 over the arena*).
	began = time.Now()
	runtime.GC()
	mem.Grow(len(moments))
	if err := e.commitRows(moments); err != nil {
		return nil, err
	}
	e.buildTimes.derive += time.Since(began)
	e.met.seriesIngested.Add(int64(len(moments)))
	return e, nil
}

// closeOnError closes c when *err holds an error: the deferred cleanup of a
// constructor that owns c until it returns it inside what it built.
func closeOnError(err *error, c io.Closer) {
	if *err != nil {
		c.Close() //nolint:errcheck // the constructor's error is the one reported
	}
}

// ErrNonFinite is wrapped by the error NewEngine, Add and Query return for a
// series or a query curve that holds a NaN or an infinity, or whose z-scores
// overflow (see Standardize). One such point standardizes the whole curve to
// NaN, and from there its spectrum, its feature and every bound computed
// against it: there is no answer to give, so none is attempted.
var ErrNonFinite = errors.New("core: non-finite value")

// Standardize writes the z-scores of values to z, which has their length. It
// is the one z-scoring of the engine: every stored series (derive, for
// NewEngine and Add) and every Values-mode query, single or sharded, goes
// through it. Finite values can still overflow their moments — ±1e200 has a
// standard deviation of +Inf and z-scores to a flat row of zeros, ±1e308 to
// NaNs — so a non-finite mean or standard deviation is refused with an error
// wrapping ErrNonFinite. Every other curve comes out exactly as
// stats.StandardizeInPlace leaves it.
func Standardize(z, values []float64) error {
	_, err := standardize(z, values)
	return err
}

// standardize is Standardize, also returning the moments it z-scored with:
// stats.ZScore(z, values, m[0], m[1]) writes the same z again.
func standardize(z, values []float64) (m [2]float64, err error) {
	copy(z, values)
	if m[0], m[1] = stats.StandardizeInPlace(z); !finite(m[0]) || !finite(m[1]) {
		return m, fmt.Errorf("z-scores overflow (mean %v, standard deviation %v): %w", m[0], m[1], ErrNonFinite)
	}
	return m, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFinite returns an error wrapping ErrNonFinite that names what (a
// series, the query) and the first NaN or ±Inf among values, or nil.
func checkFinite(what string, values []float64) error {
	if i := firstNonFinite(values); i >= 0 {
		return fmt.Errorf("core: %s has %v at point %d: %w", what, values[i], i, ErrNonFinite)
	}
	return nil
}

// firstNonFinite returns the index of the first NaN or ±Inf, -1 for none.
func firstNonFinite(values []float64) int {
	for i, v := range values {
		if !finite(v) {
			return i
		}
	}
	return -1
}

// derived is what the engine keeps of one series besides the series itself:
// its standardized values (the store's row), their compressed feature (the
// arena's row) and the burst features of both windows, already through the
// burstMinPeak floor.
type derived struct {
	z       []float64
	moments [2]float64 // z's mean and standard deviation (see standardize)
	feature *spectral.Compressed
	bursts  [2][]burst.Burst // by BurstWindow
}

// deriver derives series one after another under one Config: spec and det
// hold the spectrum and the burst detector's moving average and mask from one
// series to the next, so a block worker leaves no garbage but what it keeps.
// One goroutine uses one deriver.
type deriver struct {
	cfg    Config
	seqLen int
	spec   spectral.HalfSpectrum
	det    burst.Detection
}

// derive is the one place a series becomes a derived: NewEngine's block
// workers and prepareAdd both call it, so boots and ingests cannot come to
// keep different things. name is the series' query term, which only errors
// quote, and values its original values. The standardized values are written
// to z when it has the series' length (a buffer the caller owns and may reuse
// once it has copied the row out) and to a fresh slice otherwise. It reads
// values and writes only z and d's buffers, so derivers run side by side.
func (d *deriver) derive(name string, values, z []float64) (derived, error) {
	if len(values) != d.seqLen {
		return derived{}, fmt.Errorf("core: series %q has length %d, want %d: %w", name, len(values), d.seqLen, spectral.ErrMismatch)
	}
	if firstNonFinite(values) >= 0 { // the name is quoted only for the error
		return derived{}, checkFinite(fmt.Sprintf("series %q", name), values)
	}
	if len(z) != d.seqLen {
		z = make([]float64, d.seqLen)
	}
	moments, err := standardize(z, values)
	if err != nil {
		return derived{}, fmt.Errorf("core: series %q: %w", name, err)
	}
	if err := spectral.FromValuesInto(&d.spec, z); err != nil {
		return derived{}, fmt.Errorf("core: spectrum of %q: %w", name, err)
	}
	feature, err := d.cfg.compress(&d.spec)
	if err != nil {
		return derived{}, fmt.Errorf("core: feature of %q: %w", name, err)
	}
	out := derived{z: z, moments: moments, feature: feature}
	for _, w := range []BurstWindow{Short, Long} {
		if err := burst.DetectInto(&d.det, z, burst.Options{Window: windowDays(w)}); err != nil {
			return derived{}, fmt.Errorf("core: bursts for %q: %w", name, err)
		}
		// Only the filtered triplets leave: the moving average and mask
		// are the next detection's buffers.
		out.bursts[w] = filterBursts(&d.det)
	}
	return out, nil
}

// deriveBlock is how many series NewEngine derives at a time. Within a block
// the workers share nothing; between blocks the block's results are committed
// in input order. The block bounds what the derive stage holds beyond its
// output — the standardized rows of one block and, where the Source reads
// them from a file, their original values (2 MB each at 1 024 points) instead
// of a copy of the corpus — and 256 series are ≈ 20 ms of work at that
// length, next to which starting a block's workers and joining them costs
// nothing.
const deriveBlock = 256

// deriveAll runs derive over the Source and commits names and burst rows,
// returning what of a series' derivation is still needed: the features, in
// input order — the sequence IDs, since commitRows appends the store's rows in
// that order once the arena is packed — and each row's moments, which
// commitRows z-scores with. Commits happen in input order whatever
// Config.Workers is, so sequence IDs and the burst tables are those of a
// serial build, and the error returned is that of the first bad series by
// input position. The burst rows are collected as they are committed and
// each window's table is built once, bottom-up, after the last block.
func (e *Engine) deriveAll() ([]*spectral.Compressed, [][2]float64, error) {
	count, n := e.src.Len(), e.store.SeqLen()
	feats := make([]*spectral.Compressed, 0, count)
	moments := make([][2]float64, 0, count)
	var burstRows [2][]burstdb.Record // by BurstWindow
	derivers := make([]deriver, min(e.cfg.Workers, deriveBlock, count))
	for w := range derivers {
		derivers[w].cfg, derivers[w].seqLen = e.cfg, n
	}
	originals := make([]float64, min(deriveBlock, count)*n)
	rows := make([]float64, min(deriveBlock, count)*n)
	out := make([]derived, deriveBlock)
	errs := make([]error, deriveBlock)
	for lo := 0; lo < count; lo += deriveBlock {
		size := min(deriveBlock, count-lo)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range min(len(derivers), size) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < size; i = int(next.Add(1)) - 1 {
					values, err := e.src.Values(lo+i, originals[i*n:(i+1)*n])
					if err != nil {
						errs[i] = err
						continue
					}
					out[i], errs[i] = derivers[w].derive(e.src.Name(lo+i), values, rows[i*n:(i+1)*n])
				}
			}()
		}
		wg.Wait()
		for i := range size {
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			id := lo + i
			name := e.src.Name(id)
			e.names = append(e.names, name)
			if _, dup := e.byName[name]; !dup {
				e.byName[name] = id
			}
			for w, bs := range out[i].bursts {
				for _, b := range bs {
					burstRows[w] = append(burstRows[w], burstdb.Record{SeqID: int64(id), Start: int64(b.Start), End: int64(b.End), Avg: b.Avg})
				}
			}
			feats, moments = append(feats, out[i].feature), append(moments, out[i].moments)
		}
	}
	var dbs [2]*burstdb.DB
	for w, recs := range burstRows {
		var err error
		if dbs[w], err = burstdb.FromRecords(recs); err != nil {
			return nil, nil, err
		}
	}
	e.setBurstDBs(dbs[Short], dbs[Long])
	e.size.Store(int64(len(e.names)))
	return feats, moments, nil
}

// commitRows appends the corpus' standardized rows — store row and sketch —
// in input order, so that row i is sequence ID i as deriveAll numbered it.
// Each series is read from the Source again and z-scored with the moments
// derive found for it, which writes the row derive wrote.
func (e *Engine) commitRows(moments [][2]float64) error {
	row, buf := make([]float64, e.store.SeqLen()), make([]float64, e.store.SeqLen())
	for i, m := range moments {
		values, err := e.src.Values(i, buf)
		if err != nil {
			return err
		}
		stats.ZScore(row, values, m[0], m[1])
		if _, err := e.store.Append(row); err != nil {
			return err
		}
	}
	return nil
}

// BuildTimes reports where NewEngine's wall time went: deriving (standardize,
// spectra, features and bursts; the collection after the arena and the
// store's rows) and indexing (packing the arena). The two add up to the build.
// Zero for an engine opened by LoadEngine, which does neither.
func (e *Engine) BuildTimes() (derive, index time.Duration) {
	return e.buildTimes.derive, e.buildTimes.index
}

// Add ingests one new series into a DynamicIndex engine: the standardized
// values go to the store, the compressed feature to the arena, and the burst
// features into both burst databases. The new sequence ID is returned.
//
// Add is atomic: every fallible derivation (spectrum, compressed feature,
// burst detection) runs before any engine state is touched (prepareAdd), and
// if the arena append fails — which leaves the arena as it was — the
// already-appended store row is truncated back out, so a failed Add leaves the
// engine exactly as it was. It is also the engine's single write path, and
// holds the write lock only for the commit (addPrepared).
func (e *Engine) Add(s *series.Series) (int, error) {
	p, err := e.prepareAdd(s)
	if err != nil {
		return 0, err
	}
	return e.addPrepared(p)
}

// preparedAdd is one series with everything Add derives from it, all of it
// fallible and none of it dependent on what the engine holds (derive).
type preparedAdd struct {
	series *series.Series
	derived
}

// prepareAdd derives a series' preparedAdd. It reads only what the engine
// never changes — its Config and its series length — and takes no lock, so a
// writer runs it beside the readers it will later wait for.
func (e *Engine) prepareAdd(s *series.Series) (*preparedAdd, error) {
	d, err := (&deriver{cfg: e.cfg, seqLen: e.SeqLen()}).derive(s.Name, s.Values, nil)
	if err != nil {
		return nil, err
	}
	return &preparedAdd{series: s, derived: d}, nil
}

// addPrepared commits a preparedAdd made under this engine's Config: under
// the write lock, the store append, the arena append and the burst rows.
func (e *Engine) addPrepared(p *preparedAdd) (int, error) {
	if !e.cfg.DynamicIndex {
		return 0, errors.New("core: engine built without DynamicIndex")
	}
	lockStart := time.Now()
	e.mu.Lock()
	held := time.Now()
	defer func() {
		e.mu.Unlock()
		e.met.writeLockHold.Observe(time.Since(held))
	}()
	e.met.writeLockWait.Observe(held.Sub(lockStart))
	id, err := e.store.Append(p.z)
	if err != nil {
		return 0, err
	}
	err = e.failNextInsert
	e.failNextInsert = nil
	if err == nil {
		_, err = e.arena.Append(p.feature)
	}
	if err != nil {
		// Roll the store back to its pre-Add length; a failed append leaves
		// the arena untouched.
		if terr := e.store.Truncate(id); terr != nil {
			return 0, fmt.Errorf("core: add failed (%w) and store rollback failed: %w", err, terr)
		}
		return 0, err
	}
	// Everything below is infallible bookkeeping. A DynamicIndex engine's
	// source is a SliceSource (NewEngineFrom).
	raw := e.src.(*sliceSource)
	raw.data = append(raw.data, p.series)
	e.names = append(e.names, p.series.Name)
	e.size.Add(1)
	if _, dup := e.byName[p.series.Name]; !dup {
		e.byName[p.series.Name] = id
	}
	for _, w := range []BurstWindow{Short, Long} {
		// derive's bursts are burst.Detect's spans, which never end before
		// they start, so the table has nothing to refuse.
		if _, err := e.burstDB(w).InsertBursts(int64(id), p.bursts[w]); err != nil {
			panic(err)
		}
	}
	e.met.seriesIngested.Inc()
	return id, nil
}

// Close releases any disk resources: the store's and the Source's.
func (e *Engine) Close() error { return errors.Join(e.store.Close(), e.src.Close()) }

func windowDays(w BurstWindow) int {
	if w == Short {
		return burst.ShortWindow
	}
	return burst.LongWindow
}

func (e *Engine) burstDB(w BurstWindow) *burstdb.DB {
	if w == Short {
		return e.burstsS
	}
	return e.burstsL
}

// Len returns the number of indexed series.
func (e *Engine) Len() int { return int(e.size.Load()) }

// SeqLen returns the series length (fixed at construction).
func (e *Engine) SeqLen() int { return e.store.SeqLen() }

// Name returns the query term of sequence id.
func (e *Engine) Name(id int) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nameLocked(id)
}

func (e *Engine) nameLocked(id int) string {
	if id < 0 || id >= len(e.names) {
		return ""
	}
	return e.names[id]
}

// Lookup returns the sequence ID for a query term.
func (e *Engine) Lookup(name string) (int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.byName[name]
	return id, ok
}

// Series returns the original (unstandardized) series of sequence id.
func (e *Engine) Series(id int) (*series.Series, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= e.src.Len() {
		return nil, NoSequence(id)
	}
	return e.src.Series(id)
}

// valuesLocked returns the original values of sequence id, read-only (see
// Source.Values); caller holds mu.
func (e *Engine) valuesLocked(id int) ([]float64, error) {
	if id < 0 || id >= e.src.Len() {
		return nil, NoSequence(id)
	}
	return e.src.Values(id, nil)
}

// StandardizedValues returns the stored z-scored values of sequence id.
func (e *Engine) StandardizedValues(id int) ([]float64, error) {
	return e.store.Get(id)
}

// StandardizedView is StandardizedValues for callers that only read: when
// the store keeps its rows in memory the stored row itself is returned
// (rows are immutable once appended), otherwise a copy. The caller must not
// modify the result.
func (e *Engine) StandardizedView(id int) ([]float64, error) {
	if rows := seqstore.NewReader(e.store); rows.InPlace() {
		return rows.Row(id, nil)
	}
	return e.store.Get(id)
}

// Store exposes the sequence store (for experiment instrumentation).
func (e *Engine) Store() seqstore.Store { return e.store }

// ---------------------------------------------------------------------------
// Similarity search

// standardizeQuery z-scores a query curve of the engine's series length
// seqLen, or passes one already standardized through bit for bit.
func standardizeQuery(values []float64, seqLen int, standardized bool) ([]float64, error) {
	if len(values) != seqLen {
		return nil, spectral.ErrMismatch
	}
	if standardized {
		return values, nil
	}
	z := make([]float64, len(values))
	if err := Standardize(z, values); err != nil {
		return nil, fmt.Errorf("core: the query: %w", err)
	}
	return z, nil
}

// toNeighborsLocked resolves result IDs to names; caller holds mu.
func (e *Engine) toNeighborsLocked(res []knn.Result) []Neighbor {
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{ID: r.ID, Name: e.nameLocked(r.ID), Dist: r.Dist}
	}
	return out
}

// linearScanStandardized is the exact full-scan baseline with early
// abandoning (§7.4), gated; caller holds the read lock. With Config.Workers
// > 1 the scan is sharded across contiguous ID ranges; the merged result is
// identical to the serial ascending-ID scan, including tie order. Under a
// sharded scan the gate's budget is split across the workers, so a
// budgeted sharded scan may truncate at different rows than a serial one —
// every row actually scanned still contributes exactly.
func (e *Engine) linearScanStandardized(z []float64, k int, g *lifecycle.Gate) ([]Neighbor, error) {
	n := e.store.Len()
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return e.linearScanRange(z, k, 0, n, g)
	}
	return e.linearScanSharded(z, k, n, workers, g)
}

// linearScanRange is the serial §7.4 scan over the half-open ID range
// [lo, hi). The early-abandon bound is the range-local k-th best — always
// at least as loose as the global bound, so no global top-k member is
// ever abandoned by a shard. Each row is one gated scan unit: cancellation
// aborts mid-range, budget exhaustion keeps the best-so-far prefix.
func (e *Engine) linearScanRange(z []float64, k, lo, hi int, g *lifecycle.Gate) ([]Neighbor, error) {
	best := make([]Neighbor, 0, k+1)
	// The memory backend exposes its rows as stable read-only views, so the
	// scan walks them in place — no per-row copy, no buffer. Disk-backed
	// stores fall back to copying reads. Read accounting is identical on
	// both paths (see seqstore.Reader).
	rows := seqstore.NewReader(e.store)
	buf := rows.NewBuffer()
	for id := lo; id < hi; id++ {
		if ok, gerr := g.Visit(); gerr != nil {
			return nil, gerr
		} else if !ok {
			break // budget exhausted: return the rows scanned so far
		}
		if !g.Leaf() {
			break // ng leaf budget exhausted: best-so-far, flagged approximate
		}
		row, err := rows.Row(id, buf)
		if err != nil {
			return nil, err
		}
		bound := math.Inf(1)
		if len(best) == k {
			bound = best[len(best)-1].Dist
		}
		// ε-relaxed early abandon: give up on a row once its partial sum
		// proves d ≥ bound/(1+ε). A row abandoned in the relaxed band
		// (would have survived the exact bound) records that proven floor,
		// so the response's BoundGap stays sound. At ε=0 relaxed == bound
		// and the scan is bit-identical to exact.
		relaxed := g.Relax(bound)
		d, abandoned, err := series.EuclideanEarlyAbandon(z, row, relaxed)
		if err != nil {
			return nil, err
		}
		if abandoned {
			if relaxed < bound {
				g.MarkRelaxed(relaxed)
			}
			continue
		}
		best = insertNeighbor(best, Neighbor{ID: id, Name: e.nameLocked(id), Dist: d}, k)
	}
	return best, nil
}

// linearScanSharded fans the scan over contiguous ID shards. Each shard
// keeps its local top-k (ordered by distance, then ascending ID — the same
// order insertNeighbor gives the serial scan); concatenating the shards in
// ID order and stable-sorting by distance therefore reproduces the serial
// result byte for byte, ties included. The gate's remaining budget is
// split across the shards (gates are single-goroutine objects) and child
// outcomes are absorbed back, so truncation in any shard marks the query.
func (e *Engine) linearScanSharded(z []float64, k, n, workers int, g *lifecycle.Gate) ([]Neighbor, error) {
	bests := make([][]Neighbor, workers)
	errs := make([]error, workers)
	kids := g.Split(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			bests[w], errs[w] = e.linearScanRange(z, k, lo, hi, kids[w])
		}(w, lo, hi)
	}
	wg.Wait()
	g.Absorb(kids...)
	merged := make([]Neighbor, 0, workers*k)
	for w := range bests {
		if errs[w] != nil {
			return nil, errs[w]
		}
		merged = append(merged, bests[w]...)
	}
	slices.SortStableFunc(merged, func(a, b Neighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}

// insertNeighbor keeps the k best neighbours in canonical (Dist, ID)
// lexicographic order. For the ascending-ID scans this is exactly the
// old FIFO-among-ties behaviour made explicit; stating it as an ordering
// is what lets per-shard lists merge deterministically (internal/shard).
func insertNeighbor(best []Neighbor, n Neighbor, k int) []Neighbor {
	pos := len(best)
	for pos > 0 && (best[pos-1].Dist > n.Dist ||
		(best[pos-1].Dist == n.Dist && best[pos-1].ID > n.ID)) {
		pos--
	}
	best = append(best, Neighbor{})
	copy(best[pos+1:], best[pos:])
	best[pos] = n
	if len(best) > k {
		best = best[:k]
	}
	return best
}

// Reconstruction is the compressed-representation quality view the S2 tool
// offers ("the user can examine at any time the quality of the time-series
// approximation, based on the best-k coefficients", §7.5).
type Reconstruction struct {
	// Values is the series rebuilt from its stored compressed coefficients
	// (standardized scale).
	Values []float64
	// Error is the Euclidean reconstruction error E (fig. 5's annotation).
	Error float64
	// Coefficients is the number of stored spectral coefficients.
	Coefficients int
}

// Reconstruct rebuilds sequence id from the compressed representation the
// engine holds for it, at the budget it was built or loaded with.
func (e *Engine) Reconstruct(id int) (*Reconstruction, error) {
	z, err := e.store.Get(id)
	if err != nil {
		return nil, err
	}
	h, err := spectral.FromValues(z)
	if err != nil {
		return nil, err
	}
	c, err := e.cfg.compress(h)
	if err != nil {
		return nil, err
	}
	rec, err := c.Reconstruct()
	if err != nil {
		return nil, err
	}
	errE, err := c.ReconstructionError(z)
	if err != nil {
		return nil, err
	}
	return &Reconstruction{Values: rec, Error: errE, Coefficients: len(c.Positions)}, nil
}

// ---------------------------------------------------------------------------
// Periods

// Periods runs the §5 period detector on arbitrary raw values at
// periods.DefaultConfidence.
func (e *Engine) Periods(values []float64) (*periods.Detection, error) {
	defer e.met.periodsLat.Start()()
	e.met.periodsTotal.Inc()
	return periods.Detect(values, periods.DefaultConfidence)
}

// PeriodsOf runs the period detector on an indexed series.
func (e *Engine) PeriodsOf(id int) (*periods.Detection, error) {
	e.mu.RLock()
	values, err := e.valuesLocked(id)
	e.mu.RUnlock() // Periods below is stateless
	if err != nil {
		return nil, err
	}
	return e.Periods(values)
}

// PeriodsOfSet finds the periods shared by a set of indexed series — the §5
// use case of summarizing "the important periods for a set of sequences
// (e.g., for the knn results)". Pass e.g. the IDs of a KindSimilarID answer.
func (e *Engine) PeriodsOfSet(ids []int) (*periods.Detection, error) {
	defer e.met.periodsLat.Start()()
	e.met.periodsTotal.Inc()
	set := make([][]float64, 0, len(ids))
	e.mu.RLock()
	for _, id := range ids {
		values, err := e.valuesLocked(id)
		if err != nil {
			e.mu.RUnlock()
			return nil, err
		}
		set = append(set, values)
	}
	e.mu.RUnlock()
	return periods.DetectSet(set, periods.DefaultConfidence)
}

// ---------------------------------------------------------------------------
// Bursts

// Bursts runs the §6.1 burst detector on arbitrary raw values with the
// default cutoff and the chosen window, z-scoring them as a stored series is.
func (e *Engine) Bursts(values []float64, w BurstWindow) (*burst.Detection, error) {
	defer e.met.burstsLat.Start()()
	e.met.burstsTotal.Inc()
	return detectBursts(values, w)
}

// detectBursts is Bursts without the engine's metrics: the detection a
// query-by-burst of a curve makes once, however many shards it reaches.
func detectBursts(values []float64, w BurstWindow) (*burst.Detection, error) {
	z := make([]float64, len(values))
	if err := Standardize(z, values); err != nil {
		return nil, fmt.Errorf("core: the curve: %w", err)
	}
	return burst.Detect(z, burst.Options{Window: windowDays(w)})
}

// BurstsOf returns the stored burst features of an indexed series.
func (e *Engine) BurstsOf(id int, w BurstWindow) []burst.Burst {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.burstsOfLocked(id, w)
}

func (e *Engine) burstsOfLocked(id int, w BurstWindow) []burst.Burst {
	return e.burstDB(w).BurstsOf(int64(id))
}

// BurstMatch is one query-by-burst result.
type BurstMatch struct {
	// ID and Name identify the matched series.
	ID   int
	Name string
	// Score is the BSim similarity to the query's burst pattern.
	Score float64
}

// filterBursts applies the burstMinPeak intensity floor: the burst's moving
// average must reach burstMinPeak z-units somewhere in its span.
func filterBursts(det *burst.Detection) []burst.Burst {
	out := det.Bursts[:0:0]
	for _, b := range det.Bursts {
		peak := stats.Max(det.MA[b.Start : b.End+1])
		if peak >= burstMinPeak {
			out = append(out, b)
		}
	}
	return out
}

// queryBursts runs the §6.3 overlap query — the k indexed series whose burst
// patterns are most similar to q, exclude (-1 = none) left out; caller holds
// mu. The gate bounds interval probes and BSim rankings; on budget
// exhaustion the best-so-far matches are returned with truncated=true. The
// burst-probe phase is recorded as a child of the request's family span (see
// Envelope). With explain set the same gated query also fills the
// per-burst overlap-scan report.
func (e *Engine) queryBursts(ctx context.Context, q []burst.Burst, k int, exclude int64, w BurstWindow, g *lifecycle.Gate, explain bool) ([]BurstMatch, *BurstExplain, bool, error) {
	defer e.met.qbbLat.Start()()
	e.met.qbbTotal.Inc()
	fam := obs.SpanFromContext(ctx)
	fam.Annotate("window", w.String())
	fam.Annotate("query_bursts", strconv.Itoa(len(q)))
	sp := fam.Child("burst_probe")
	var (
		matches   []burstdb.Match
		st        burstdb.ScanStats
		detail    *burstdb.QBBExplain
		truncated bool
		err       error
	)
	if explain {
		matches, st, detail, truncated, err = e.burstDB(w).QueryByBurstExplain(q, k, exclude, burstdb.PlanAuto, g)
	} else {
		matches, st, truncated, err = e.burstDB(w).QueryByBurstLimited(q, k, exclude, burstdb.PlanAuto, g)
	}
	sp.Finish()
	if err != nil {
		return nil, nil, false, err
	}
	sp.Annotate("plan", st.Plan.String())
	sp.Annotate("rows_scanned", strconv.Itoa(st.RowsScanned))
	sp.Annotate("rows_matched", strconv.Itoa(st.RowsMatched))
	e.met.qbbResults.Add(int64(len(matches)))
	out := make([]BurstMatch, len(matches))
	for i, m := range matches {
		out[i] = BurstMatch{ID: int(m.SeqID), Name: e.nameLocked(int(m.SeqID)), Score: m.Score}
	}
	var bexp *BurstExplain
	if explain {
		bexp = &BurstExplain{
			Window:      w.String(),
			QueryBursts: len(q),
			Plan:        st.Plan.String(),
			RowsScanned: st.RowsScanned,
			RowsMatched: st.RowsMatched,
			Detail:      detail,
		}
	}
	return out, bexp, truncated, nil
}

// BurstDB exposes the underlying burst database for a window (for
// experiment instrumentation). The database is not internally
// synchronized; do not mutate it while the engine serves queries.
func (e *Engine) BurstDB(w BurstWindow) *burstdb.DB { return e.burstDB(w) }
