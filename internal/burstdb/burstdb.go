// Package burstdb is the relational-style store for compacted burst
// features (§6.2–6.3): a heap table of
//
//	[sequenceID, startDate, endDate, average burst value]
//
// rows with secondary B-tree indexes on startDate, on endDate and on
// (length class, startDate), an executor for the paper's fig. 18 overlap
// query
//
//	SELECT * FROM bursts WHERE start < Q.end AND end > Q.start
//
// (the paper's one-sided index scans and full scan, plus a range scan of the
// length-class index bounded on both sides), and 'query-by-burst' ranking
// with the BSim measure on top of it.
package burstdb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/burst"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// Record is one burst-feature row.
type Record struct {
	// SeqID identifies the time series the burst belongs to.
	SeqID int64
	// Start and End are the burst's first and last day indices (inclusive).
	Start, End int64
	// Avg is the average standardized value over the burst.
	Avg float64
}

// String implements fmt.Stringer.
func (r Record) String() string {
	return fmt.Sprintf("{seq=%d [%d,%d] avg=%.2f}", r.SeqID, r.Start, r.End, r.Avg)
}

// Plan selects the execution strategy for the overlap query.
type Plan int

const (
	// PlanAuto scans the (length class, startDate) index. A row at most L
	// days long overlaps [qStart, qEnd] only if it starts in
	// [qStart − L + 1, qEnd], so each class is one range bounded on both
	// sides by the longest row the class has held, filtered on end ≥ qStart.
	PlanAuto Plan = iota
	// PlanIndexStart scans the startDate B-tree for start < Q.end and
	// filters on end > Q.start.
	PlanIndexStart
	// PlanIndexEnd scans the endDate B-tree for end > Q.start and filters
	// on start < Q.end.
	PlanIndexEnd
	// PlanFullScan reads the heap table directly (the baseline).
	PlanFullScan
)

// String implements fmt.Stringer.
func (p Plan) String() string {
	switch p {
	case PlanAuto:
		return "index(class,start)"
	case PlanIndexStart:
		return "index(start)"
	case PlanIndexEnd:
		return "index(end)"
	case PlanFullScan:
		return "fullscan"
	default:
		return fmt.Sprintf("Plan(%d)", int(p))
	}
}

// ScanStats reports the work an overlap query performed.
type ScanStats struct {
	// Plan is the plan executed.
	Plan Plan
	// RowsScanned counts rows touched (index entries followed or heap rows read).
	RowsScanned int
	// RowsMatched counts rows satisfying both predicates.
	RowsMatched int
}

// Metrics routes per-query accounting into obs counters. The zero value
// (and nil counters) disables every increment, so DBs can update metrics
// unconditionally.
type Metrics struct {
	// Queries counts overlap scans (each query-by-burst issues one per query
	// burst).
	Queries *obs.Counter
	// RowsScanned counts rows touched by any plan (index entries followed
	// or heap rows read).
	RowsScanned *obs.Counter
	// RowsMatched counts rows satisfying both overlap predicates.
	RowsMatched *obs.Counter
	// BTreeProbes counts index-entry visits — RowsScanned restricted to
	// the three index plans, i.e. the paper's "pages touched" analogue.
	BTreeProbes *obs.Counter
	// Candidates and Matches count query-by-burst candidate sequences
	// found via the overlap indexes vs. those that scored BSim > 0.
	Candidates *obs.Counter
	Matches    *obs.Counter
}

// classes is the number of length classes. A row spanning End − Start = s
// days is s + 1 days long and falls in class ⌈log₂(s + 1)⌉ = bits.Len64(s).
const classes = 65

// lenClass is one length class of the (length class, startDate) index.
type lenClass struct {
	// byStart holds the class's rows as (Start, rid); nil until the first.
	byStart *btree.BTree
	// maxSpan is End − Start of the longest row in the class.
	maxSpan uint64
}

// seqRows is one sequence's rows in (Start, rid) order, as the bursts
// query-by-burst scores.
type seqRows struct {
	id     int64
	bursts []burst.Burst
}

// DB is the burst-feature database.
//
// Concurrency contract: DB has no internal locking. Reads (Overlapping,
// QueryByBurstLimited, BurstsOf, Len) are safe to run concurrently with each
// other — they only walk the heap table and B-trees, and the obs metric
// counters they bump are atomic — but Insert/InsertBursts mutate those
// structures and must be serialized against all other access by the
// caller. core.Engine enforces this with its single-writer RWMutex: Add
// holds the write lock across burst inserts, searches hold the read lock.
//
// The table only grows (see persist.go): every row ID addresses a row and
// every sequence in seqs has at least one.
type DB struct {
	rows    []Record
	ords    []int32 // each row's sequence ordinal
	byStart *btree.BTree
	byEnd   *btree.BTree
	byClass [classes]lenClass
	// seqs holds every sequence with a row, by dense ordinal in order of its
	// first row; ordOf maps a SeqID to its ordinal.
	seqs    []seqRows
	ordOf   map[int64]int32
	minKey  int64
	maxKey  int64
	metrics Metrics
}

// SetMetrics installs obs counters that every subsequent query updates.
func (db *DB) SetMetrics(m Metrics) { db.metrics = m }

// New creates an empty burst database.
func New() *DB {
	db, err := FromRecords(nil)
	if err != nil {
		panic(err) // nothing to refuse in an empty table
	}
	return db
}

// ErrBadRange is returned for a span whose start is after its end: a query
// span, or a record Insert, InsertBursts or FromRecords is given.
var ErrBadRange = errors.New("burstdb: start after end")

// FromRecords builds a database holding records as rows 0, 1, … in order:
// the table that inserting them one by one would leave, down to row IDs,
// index order and Save's bytes. It is built bottom-up instead — each index
// bulk-loaded from its sorted (key, rid) run. It takes ownership of records.
// A record with End < Start is refused with ErrBadRange.
func FromRecords(records []Record) (*DB, error) {
	n := len(records)
	db := &DB{
		rows:   records,
		ords:   make([]int32, n),
		ordOf:  map[int64]int32{},
		minKey: math.MaxInt64,
		maxKey: math.MinInt64,
	}
	var perSeq []int
	for rid, r := range records {
		if r.End < r.Start {
			return nil, fmt.Errorf("burstdb: row %d spans [%d, %d]: %w", rid, r.Start, r.End, ErrBadRange)
		}
		db.ords[rid] = db.ordinal(r.SeqID)
		if len(perSeq) < len(db.seqs) {
			perSeq = append(perSeq, 0)
		}
		perSeq[db.ords[rid]]++
		c, span := classOf(r)
		db.byClass[c].maxSpan = max(db.byClass[c].maxSpan, span)
		db.minKey, db.maxKey = min(db.minKey, r.Start), max(db.maxKey, r.End)
	}
	// Every sequence's rows are carved from one array, each capped at its
	// own rows, so a later Insert reallocates instead of writing over the
	// next sequence's.
	bursts := make([]burst.Burst, n)
	off := 0
	for o, cnt := range perSeq {
		db.seqs[o].bursts = bursts[off : off : off+cnt]
		off += cnt
	}
	var classKeys, classRIDs [classes][]int64
	// Walking the rows in (Start, rid) order puts each sequence's rows and
	// each class's entries in that order as well.
	starts, byStart := sortedRun(records, false)
	for _, rid := range byStart {
		r := records[rid]
		s := &db.seqs[db.ords[rid]]
		s.bursts = append(s.bursts, asBurst(r))
		c, _ := classOf(r)
		classKeys[c], classRIDs[c] = append(classKeys[c], r.Start), append(classRIDs[c], rid)
	}
	var err error
	if db.byStart, err = bulkLoad(starts, byStart); err != nil {
		return nil, err
	}
	if db.byEnd, err = bulkLoad(sortedRun(records, true)); err != nil {
		return nil, err
	}
	for c := range db.byClass {
		if len(classKeys[c]) == 0 {
			continue
		}
		if db.byClass[c].byStart, err = bulkLoad(classKeys[c], classRIDs[c]); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// bulkLoad builds one index from its (key, rid) run.
func bulkLoad(keys, rids []int64) (*btree.BTree, error) {
	t, err := btree.BulkLoad(btree.DefaultOrder, keys, rids)
	if err != nil {
		return nil, fmt.Errorf("burstdb: build index: %w", err)
	}
	return t, nil
}

// sortedRun orders the rows by (Start, rid), or by (End, rid), and returns
// the keys and row IDs in that order. Burst keys are days, far fewer
// distinct values than rows, so a counting sort does it in O(n + spread) —
// stable, so row IDs ascend within a key; a comparison sort takes any wider
// spread. Taking the comparison sort for every run adds a tenth to a
// 4 096-series NewEngine (docs/kernels.md, *Query-by-burst*).
func sortedRun(rows []Record, byEnd bool) (keys, rids []int64) {
	key := func(r Record) int64 {
		if byEnd {
			return r.End
		}
		return r.Start
	}
	keys, rids = make([]int64, len(rows)), make([]int64, len(rows))
	if len(rows) == 0 {
		return keys, rids
	}
	lo, hi := key(rows[0]), key(rows[0])
	for _, r := range rows {
		lo, hi = min(lo, key(r)), max(hi, key(r))
	}
	if spread := uint64(hi) - uint64(lo); spread < uint64(len(rows)) {
		next := make([]int, spread+2) // next[k−lo]: where key k's next row goes
		for _, r := range rows {
			next[key(r)-lo+1]++
		}
		for i := 1; i < len(next); i++ {
			next[i] += next[i-1]
		}
		for rid, r := range rows {
			p := &next[key(r)-lo]
			keys[*p], rids[*p] = key(r), int64(rid)
			*p++
		}
		return keys, rids
	}
	for i := range rids {
		rids[i] = int64(i)
	}
	slices.SortFunc(rids, func(a, b int64) int {
		return cmp.Or(cmp.Compare(key(rows[a]), key(rows[b])), cmp.Compare(a, b))
	})
	for i, rid := range rids {
		keys[i] = key(rows[rid])
	}
	return keys, rids
}

// classOf returns a valid record's length class and its span End − Start.
func classOf(r Record) (int, uint64) {
	span := uint64(r.End) - uint64(r.Start)
	return bits.Len64(span), span
}

func asBurst(r Record) burst.Burst {
	return burst.Burst{Start: int(r.Start), End: int(r.End), Avg: r.Avg}
}

// ordinal returns seqID's ordinal, giving it the next one if it has none.
func (db *DB) ordinal(seqID int64) int32 {
	if o, ok := db.ordOf[seqID]; ok {
		return o
	}
	o := int32(len(db.seqs))
	db.ordOf[seqID] = o
	db.seqs = append(db.seqs, seqRows{id: seqID})
	return o
}

// Insert appends a record and returns its row ID. A record with End < Start
// is refused with ErrBadRange.
func (db *DB) Insert(r Record) (int64, error) {
	if r.End < r.Start {
		return 0, fmt.Errorf("burstdb: insert [%d, %d]: %w", r.Start, r.End, ErrBadRange)
	}
	rid := int64(len(db.rows))
	ord := db.ordinal(r.SeqID)
	db.rows = append(db.rows, r)
	db.ords = append(db.ords, ord)
	db.byStart.Insert(r.Start, rid)
	db.byEnd.Insert(r.End, rid)
	c, span := classOf(r)
	lc := &db.byClass[c]
	if lc.byStart == nil {
		lc.byStart, _ = btree.New(btree.DefaultOrder) // DefaultOrder is valid
	}
	lc.byStart.Insert(r.Start, rid)
	lc.maxSpan = max(lc.maxSpan, span)
	s := &db.seqs[ord]
	// rid is the largest row ID, so it goes after every row starting no later.
	i := len(s.bursts)
	for i > 0 && s.bursts[i-1].Start > int(r.Start) {
		i--
	}
	s.bursts = slices.Insert(s.bursts, i, asBurst(r))
	db.minKey, db.maxKey = min(db.minKey, r.Start), max(db.maxKey, r.End)
	return rid, nil
}

// InsertBursts stores every burst of one sequence and returns the row IDs.
// If any burst ends before it starts, nothing is stored and the error wraps
// ErrBadRange.
func (db *DB) InsertBursts(seqID int64, bursts []burst.Burst) ([]int64, error) {
	for _, b := range bursts {
		if b.End < b.Start {
			return nil, fmt.Errorf("burstdb: burst [%d, %d] of sequence %d: %w", b.Start, b.End, seqID, ErrBadRange)
		}
	}
	rids := make([]int64, 0, len(bursts))
	for _, b := range bursts {
		rid, _ := db.Insert(Record{SeqID: seqID, Start: int64(b.Start), End: int64(b.End), Avg: b.Avg}) // spans checked above
		rids = append(rids, rid)
	}
	return rids, nil
}

// Len returns the number of rows.
func (db *DB) Len() int { return len(db.rows) }

// Sequences returns the number of distinct sequences with stored bursts.
func (db *DB) Sequences() int { return len(db.seqs) }

// BurstsOf returns the burst set of one sequence in time order. It is never
// nil: a sequence without bursts has an empty pattern.
func (db *DB) BurstsOf(seqID int64) []burst.Burst {
	out := []burst.Burst{}
	if o, ok := db.ordOf[seqID]; ok {
		out = append(out, db.seqs[o].bursts...)
	}
	return out
}

// Overlapping executes the fig. 18 query: all rows whose [Start,End] span
// overlaps the query span [qStart, qEnd], i.e. Start ≤ qEnd AND End ≥ qStart
// (the paper's strict "<"/">" applies to exclusive end dates; spans here are
// inclusive on both sides). The rows come in full-tuple order (SeqID, Start,
// End, Avg), so every plan returns the same sequence.
func (db *DB) Overlapping(qStart, qEnd int64, plan Plan) ([]Record, ScanStats, error) {
	var out []Record
	st, err := db.scan(qStart, qEnd, plan, nil, func(rid int64) { out = append(out, db.rows[rid]) })
	if err != nil {
		return nil, st, err
	}
	slices.SortFunc(out, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.SeqID, b.SeqID), cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.End, b.End), cmp.Compare(a.Avg, b.Avg))
	})
	return out, st, nil
}

// scan runs one overlap query, calling hit for each overlapping row in the
// order the plan reaches it, under an optional request-lifecycle gate: each
// row touched (index entry followed or heap row read) is one gated scan
// unit, so cancellation aborts mid-scan with the context's error and budget
// exhaustion stops the scan early (the gate records the truncation).
func (db *DB) scan(qStart, qEnd int64, plan Plan, g *lifecycle.Gate, hit func(rid int64)) (ScanStats, error) {
	if qStart > qEnd {
		return ScanStats{}, ErrBadRange
	}
	st := ScanStats{Plan: plan}
	var gateErr error
	stopped := false
	// visit gates one row touched and reports it if overlaps; false stops
	// the scan, recording any ctx error.
	visit := func(rid int64, overlaps bool) bool {
		ok, err := g.Visit()
		if !ok {
			gateErr, stopped = err, true
			return false
		}
		st.RowsScanned++
		if overlaps {
			st.RowsMatched++
			hit(rid)
		}
		return true
	}
	switch plan {
	case PlanAuto:
		for c := range db.byClass {
			lc := &db.byClass[c]
			if lc.byStart == nil || lc.byStart.Len() == 0 {
				continue
			}
			lc.byStart.AscendRange(earliestStart(qStart, lc.maxSpan), qEnd, func(_, rid int64) bool {
				return visit(rid, db.rows[rid].End >= qStart)
			})
			if stopped {
				break
			}
		}
	case PlanIndexStart:
		db.byStart.AscendRange(math.MinInt64, qEnd, func(_, rid int64) bool {
			return visit(rid, db.rows[rid].End >= qStart)
		})
	case PlanIndexEnd:
		db.byEnd.AscendRange(qStart, math.MaxInt64, func(_, rid int64) bool {
			return visit(rid, db.rows[rid].Start <= qEnd)
		})
	case PlanFullScan:
		for rid, r := range db.rows {
			if !visit(int64(rid), r.Start <= qEnd && r.End >= qStart) {
				break
			}
		}
	default:
		return st, fmt.Errorf("burstdb: unknown plan %v", plan)
	}
	if gateErr != nil {
		return st, gateErr
	}
	db.metrics.Queries.Inc()
	db.metrics.RowsScanned.Add(int64(st.RowsScanned))
	db.metrics.RowsMatched.Add(int64(st.RowsMatched))
	if plan != PlanFullScan {
		db.metrics.BTreeProbes.Add(int64(st.RowsScanned))
	}
	return st, nil
}

// earliestStart is the first start a row spanning at most maxSpan days can
// have and still end at or after qStart: qStart − maxSpan, clamped to the
// smallest int64.
func earliestStart(qStart int64, maxSpan uint64) int64 {
	if room := uint64(qStart) + 1<<63; maxSpan > room { // room = qStart − MinInt64
		return math.MinInt64
	}
	return int64(uint64(qStart) - maxSpan)
}

// KeySpan returns the smallest startDate and largest endDate over all rows
// (used by planners for selectivity estimates). ok is false while the table
// is empty.
func (db *DB) KeySpan() (min, max int64, ok bool) {
	if len(db.rows) == 0 {
		return 0, 0, false
	}
	return db.minKey, db.maxKey, true
}

// ScanStart visits rows with startDate in [lo, hi] via the startDate
// B-tree, in startDate order, until fn returns false.
func (db *DB) ScanStart(lo, hi int64, fn func(rid int64, r Record) bool) {
	db.byStart.AscendRange(lo, hi, func(_, rid int64) bool {
		return fn(rid, db.rows[rid])
	})
}

// ScanEnd visits rows with endDate in [lo, hi] via the endDate B-tree,
// in endDate order, until fn returns false.
func (db *DB) ScanEnd(lo, hi int64, fn func(rid int64, r Record) bool) {
	db.byEnd.AscendRange(lo, hi, func(_, rid int64) bool {
		return fn(rid, db.rows[rid])
	})
}

// ScanAll visits every row in heap order until fn returns false.
func (db *DB) ScanAll(fn func(rid int64, r Record) bool) {
	for rid, r := range db.rows {
		if !fn(int64(rid), r) {
			return
		}
	}
}

// Match is one query-by-burst result.
type Match struct {
	// SeqID is the matched sequence.
	SeqID int64
	// Score is the BSim similarity to the query's burst set.
	Score float64
}

// QueryByBurstLimited finds the k sequences whose burst patterns are most
// similar to the query burst set (§6.3): candidate rows are located with the
// overlap index query for each query burst, then candidates are ranked by
// BSim. exclude (optional, may be -1) drops one sequence ID from the results
// — typically the query itself when it is already in the database. Every
// row touched by the overlap scans and every candidate ranked by BSim is one
// unit of the request-lifecycle gate g: cancellation aborts with the
// context's error; budget exhaustion returns the matches ranked so far with
// truncated=true. A nil gate never stops it.
func (db *DB) QueryByBurstLimited(query []burst.Burst, k int, exclude int64, plan Plan, g *lifecycle.Gate) ([]Match, ScanStats, bool, error) {
	return db.queryByBurst(query, k, exclude, plan, nil, g)
}

// BurstScanExplain is one query burst's overlap scan in an explained
// query-by-burst: the burst's span plus the work its fig. 18 query did.
type BurstScanExplain struct {
	// QueryStart and QueryEnd are the query burst's day span (inclusive).
	QueryStart int64 `json:"query_start"`
	QueryEnd   int64 `json:"query_end"`
	// Plan is the plan the scan executed.
	Plan string `json:"plan"`
	// RowsScanned and RowsMatched are the scan's work counters; for the
	// index plans RowsScanned equals the B-tree entries probed.
	RowsScanned int `json:"rows_scanned"`
	RowsMatched int `json:"rows_matched"`
}

// QBBExplain is the structured report of one explained query-by-burst.
type QBBExplain struct {
	// PerBurst holds one overlap-scan report per query burst.
	PerBurst []BurstScanExplain `json:"per_burst"`
	// BTreeProbes totals index entries followed across all bursts (0 when
	// every burst ran a full scan).
	BTreeProbes int `json:"btree_probes"`
	// Candidates counts distinct sequences located by the overlap scans;
	// Matches counts those with BSim > 0.
	Candidates int `json:"candidates"`
	Matches    int `json:"matches"`
}

// QueryByBurstExplain is QueryByBurstLimited while collecting a per-burst
// explain report. Results, aggregate stats and truncation are identical to
// the plain call under the same gate.
func (db *DB) QueryByBurstExplain(query []burst.Burst, k int, exclude int64, plan Plan, g *lifecycle.Gate) ([]Match, ScanStats, *QBBExplain, bool, error) {
	exp := &QBBExplain{}
	matches, agg, truncated, err := db.queryByBurst(query, k, exclude, plan, exp, g)
	return matches, agg, exp, truncated, err
}

// qbbScratch is the working memory of one queryByBurst, pooled across
// queries: the candidate set, one bit per sequence ordinal, all clear
// between queries. The matches returned are freshly allocated.
type qbbScratch struct {
	marks []uint64
}

var qbbPool = sync.Pool{New: func() any { return new(qbbScratch) }}

func (db *DB) queryByBurst(query []burst.Burst, k int, exclude int64, plan Plan, exp *QBBExplain, g *lifecycle.Gate) ([]Match, ScanStats, bool, error) {
	var agg ScanStats
	if k < 1 {
		return nil, agg, false, errors.New("burstdb: k must be >= 1")
	}
	if err := g.Check(); err != nil {
		return nil, agg, false, err
	}
	sc := qbbPool.Get().(*qbbScratch)
	if words := (len(db.seqs) + 63) / 64; cap(sc.marks) < words {
		sc.marks = make([]uint64, words)
	} else {
		sc.marks = sc.marks[:words]
	}
	marks := sc.marks
	defer func() {
		clear(marks)
		qbbPool.Put(sc)
	}()
	skip := int32(-1)
	if o, ok := db.ordOf[exclude]; ok {
		skip = o
	}
	mark := func(rid int64) {
		if o := db.ords[rid]; o != skip {
			marks[o>>6] |= 1 << (o & 63)
		}
	}
	for _, qb := range query {
		st, err := db.scan(int64(qb.Start), int64(qb.End), plan, g, mark)
		if err != nil {
			return nil, agg, false, err
		}
		agg.Plan = st.Plan
		agg.RowsScanned += st.RowsScanned
		agg.RowsMatched += st.RowsMatched
		if exp != nil {
			exp.PerBurst = append(exp.PerBurst, BurstScanExplain{
				QueryStart:  int64(qb.Start),
				QueryEnd:    int64(qb.End),
				Plan:        st.Plan.String(),
				RowsScanned: st.RowsScanned,
				RowsMatched: st.RowsMatched,
			})
			if st.Plan != PlanFullScan {
				exp.BTreeProbes += st.RowsScanned
			}
		}
	}
	candidates := 0
	for _, w := range marks {
		candidates += bits.OnesCount64(w)
	}
	db.metrics.Candidates.Add(int64(candidates))
	// Rank candidates in ordinal order — sequence-ID order when sequences
	// arrive in ascending ID order, as an engine's do — so a budget that
	// truncates the ranking loop cuts a deterministic prefix.
	top := make([]Match, 0, min(k, candidates))
	matched := 0
	var gateErr error
rank:
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			if ok, err := g.Visit(); !ok {
				gateErr = err // nil when the budget ran out: rank what was scored
				break rank
			}
			s := &db.seqs[i<<6|bits.TrailingZeros64(w)]
			if score := bsim(query, s.bursts); score > 0 {
				matched++
				top = pushTop(top, k, Match{SeqID: s.id, Score: score})
			}
		}
	}
	if gateErr != nil {
		return nil, agg, false, gateErr
	}
	db.metrics.Matches.Add(int64(matched))
	if exp != nil {
		exp.Candidates = candidates
		exp.Matches = matched
	}
	slices.SortFunc(top, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.SeqID, b.SeqID))
	})
	return top, agg, g.Truncated(), nil
}

// bsim is burst.BSim(x, y) for y in start order. The inner loop stops at the
// first burst of y starting after a ends: no later one can overlap a. The
// terms it skips are zero-overlap terms BSim skips too, and it adds the
// others in BSim's order, so the two sums agree bit for bit.
func bsim(x, y []burst.Burst) float64 {
	total := 0.0
	for _, a := range x {
		for _, b := range y {
			if b.Start > a.End {
				break
			}
			if burst.Overlap(a, b) == 0 {
				continue
			}
			total += burst.Intersect(a, b) * burst.Similarity(a, b)
		}
	}
	return total
}

// ranksBefore is the answer order: score descending, then sequence ID.
func ranksBefore(a, b Match) bool {
	return a.Score > b.Score || a.Score == b.Score && a.SeqID < b.SeqID
}

// pushTop offers m to top, the best matches so far (at most k), kept as a
// heap with the worst of them at the root.
func pushTop(top []Match, k int, m Match) []Match {
	if len(top) < k {
		top = append(top, m)
		for i := len(top) - 1; i > 0; {
			p := (i - 1) / 2
			if !ranksBefore(top[p], top[i]) {
				break
			}
			top[i], top[p] = top[p], top[i]
			i = p
		}
		return top
	}
	if !ranksBefore(m, top[0]) {
		return top
	}
	top[0] = m
	for i := 0; ; {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(top) && ranksBefore(top[worst], top[l]) {
			worst = l
		}
		if r < len(top) && ranksBefore(top[worst], top[r]) {
			worst = r
		}
		if worst == i {
			return top
		}
		top[i], top[worst] = top[worst], top[i]
		i = worst
	}
}
