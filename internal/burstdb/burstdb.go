// Package burstdb is the relational-style store for compacted burst
// features (§6.2–6.3): a heap table of
//
//	[sequenceID, startDate, endDate, average burst value]
//
// rows with secondary B-tree indexes on startDate and endDate, an executor
// for the paper's fig. 18 overlap query
//
//	SELECT * FROM bursts WHERE start < Q.end AND end > Q.start
//
// (index scan or full scan, chosen by a simple selectivity heuristic), and
// 'query-by-burst' ranking with the BSim measure on top of it.
package burstdb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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
	// PlanAuto picks between the index plans by estimated selectivity.
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
		return "auto"
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
	// Plan is the plan actually executed (PlanAuto resolves to a concrete one).
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
	// Queries counts Overlapping executions (each QueryByBurst issues one
	// per query burst).
	Queries *obs.Counter
	// RowsScanned counts rows touched by any plan (index entries followed
	// or heap rows read).
	RowsScanned *obs.Counter
	// RowsMatched counts rows satisfying both overlap predicates.
	RowsMatched *obs.Counter
	// BTreeProbes counts index-entry visits — RowsScanned restricted to
	// the two B-tree plans, i.e. the paper's "pages touched" analogue.
	BTreeProbes *obs.Counter
	// Candidates and Matches count query-by-burst candidate sequences
	// found via the overlap indexes vs. those that scored BSim > 0.
	Candidates *obs.Counter
	Matches    *obs.Counter
}

// DB is the burst-feature database.
//
// Concurrency contract: DB has no internal locking. Reads (Overlapping,
// QueryByBurst, BurstsOf, Len) are safe to run concurrently with each
// other — they only walk the heap table and B-trees, and the obs metric
// counters they bump are atomic — but Insert/InsertBursts/Delete mutate
// those structures and must be serialized against all other access by the
// caller. core.Engine enforces this with its single-writer RWMutex: Add
// holds the write lock across burst inserts, searches hold the read lock.
type DB struct {
	rows    []Record
	live    []bool
	liveCnt int
	byStart *btree.BTree
	byEnd   *btree.BTree
	bySeq   map[int64][]int64
	minKey  int64
	maxKey  int64
	metrics Metrics
}

// SetMetrics installs obs counters that every subsequent query updates.
func (db *DB) SetMetrics(m Metrics) { db.metrics = m }

// New creates an empty burst database.
func New() *DB {
	bs, err := btree.New(btree.DefaultOrder)
	if err != nil {
		panic(err) // DefaultOrder is valid by construction
	}
	be, _ := btree.New(btree.DefaultOrder)
	return &DB{
		byStart: bs,
		byEnd:   be,
		bySeq:   map[int64][]int64{},
		minKey:  math.MaxInt64,
		maxKey:  math.MinInt64,
	}
}

// Insert appends a record and returns its row ID.
func (db *DB) Insert(r Record) int64 {
	rid := int64(len(db.rows))
	db.rows = append(db.rows, r)
	db.live = append(db.live, true)
	db.liveCnt++
	db.byStart.Insert(r.Start, rid)
	db.byEnd.Insert(r.End, rid)
	db.bySeq[r.SeqID] = append(db.bySeq[r.SeqID], rid)
	if r.Start < db.minKey {
		db.minKey = r.Start
	}
	if r.End > db.maxKey {
		db.maxKey = r.End
	}
	return rid
}

// InsertBursts stores every burst of one sequence and returns the row IDs.
func (db *DB) InsertBursts(seqID int64, bursts []burst.Burst) []int64 {
	rids := make([]int64, 0, len(bursts))
	for _, b := range bursts {
		rids = append(rids, db.Insert(Record{
			SeqID: seqID,
			Start: int64(b.Start),
			End:   int64(b.End),
			Avg:   b.Avg,
		}))
	}
	return rids
}

// Delete removes row rid and reports whether it was live.
func (db *DB) Delete(rid int64) bool {
	if rid < 0 || rid >= int64(len(db.rows)) || !db.live[rid] {
		return false
	}
	r := db.rows[rid]
	db.live[rid] = false
	db.liveCnt--
	db.byStart.Delete(r.Start, rid)
	db.byEnd.Delete(r.End, rid)
	rids := db.bySeq[r.SeqID]
	for i, id := range rids {
		if id == rid {
			db.bySeq[r.SeqID] = append(rids[:i], rids[i+1:]...)
			break
		}
	}
	if len(db.bySeq[r.SeqID]) == 0 {
		delete(db.bySeq, r.SeqID)
	}
	return true
}

// Get returns row rid.
func (db *DB) Get(rid int64) (Record, bool) {
	if rid < 0 || rid >= int64(len(db.rows)) || !db.live[rid] {
		return Record{}, false
	}
	return db.rows[rid], true
}

// Len returns the number of live rows.
func (db *DB) Len() int { return db.liveCnt }

// Sequences returns the number of distinct sequences with stored bursts.
func (db *DB) Sequences() int { return len(db.bySeq) }

// BurstsOf returns the burst set of one sequence in time order.
func (db *DB) BurstsOf(seqID int64) []burst.Burst {
	return db.appendBurstsOf(make([]burst.Burst, 0, len(db.bySeq[seqID])), seqID)
}

// appendBurstsOf is BurstsOf into dst[:0], so a ranking loop scores every
// candidate through one buffer.
func (db *DB) appendBurstsOf(dst []burst.Burst, seqID int64) []burst.Burst {
	dst = dst[:0]
	for _, rid := range db.bySeq[seqID] {
		r := db.rows[rid]
		dst = append(dst, burst.Burst{Start: int(r.Start), End: int(r.End), Avg: r.Avg})
	}
	slices.SortFunc(dst, func(a, b burst.Burst) int { return cmp.Compare(a.Start, b.Start) })
	return dst
}

// ErrBadRange is returned when qStart > qEnd.
var ErrBadRange = errors.New("burstdb: query start after query end")

// Overlapping executes the fig. 18 query: all rows whose [Start,End] span
// overlaps the query span [qStart, qEnd], i.e. Start ≤ qEnd AND End ≥ qStart
// (the paper's strict "<"/">" applies to exclusive end dates; spans here are
// inclusive on both sides).
func (db *DB) Overlapping(qStart, qEnd int64, plan Plan) ([]Record, ScanStats, error) {
	return db.overlapping(qStart, qEnd, plan, nil, nil)
}

// overlapping is Overlapping under an optional request-lifecycle gate: each
// row touched (index entry followed or heap row read) is one gated scan
// unit, so cancellation aborts mid-scan with the context's error and budget
// exhaustion stops the scan early (the gate records the truncation; the
// rows gathered so far are returned). The rows are appended to dst[:0], so a
// caller issuing one scan after another reuses one buffer.
func (db *DB) overlapping(qStart, qEnd int64, plan Plan, g *lifecycle.Gate, dst []Record) ([]Record, ScanStats, error) {
	if qStart > qEnd {
		return nil, ScanStats{}, ErrBadRange
	}
	if plan == PlanAuto {
		plan = db.pickPlan(qStart, qEnd)
	}
	var st ScanStats
	st.Plan = plan
	out := dst[:0]
	var gateErr error
	// admit gates one row: false stops the scan, recording any ctx error.
	admit := func() bool {
		ok, err := g.Visit()
		if err != nil {
			gateErr = err
		}
		return ok
	}
	emit := func(rid int64) {
		r := db.rows[rid]
		out = append(out, r)
		st.RowsMatched++
	}
	switch plan {
	case PlanIndexStart:
		// start ≤ qEnd via index, filter end ≥ qStart.
		db.byStart.AscendRange(math.MinInt64, qEnd, func(_, rid int64) bool {
			if !admit() {
				return false
			}
			st.RowsScanned++
			if db.rows[rid].End >= qStart {
				emit(rid)
			}
			return true
		})
	case PlanIndexEnd:
		// end ≥ qStart via index, filter start ≤ qEnd.
		db.byEnd.AscendRange(qStart, math.MaxInt64, func(_, rid int64) bool {
			if !admit() {
				return false
			}
			st.RowsScanned++
			if db.rows[rid].Start <= qEnd {
				emit(rid)
			}
			return true
		})
	case PlanFullScan:
		for rid, r := range db.rows {
			if !db.live[rid] {
				continue
			}
			if !admit() {
				break
			}
			st.RowsScanned++
			if r.Start <= qEnd && r.End >= qStart {
				emit(int64(rid))
			}
		}
	default:
		return nil, st, fmt.Errorf("burstdb: unknown plan %v", plan)
	}
	if gateErr != nil {
		return nil, st, gateErr
	}
	db.metrics.Queries.Inc()
	db.metrics.RowsScanned.Add(int64(st.RowsScanned))
	db.metrics.RowsMatched.Add(int64(st.RowsMatched))
	if plan == PlanIndexStart || plan == PlanIndexEnd {
		db.metrics.BTreeProbes.Add(int64(st.RowsScanned))
	}
	// Full-tuple ordering so every plan returns an identical row sequence
	// even when several bursts of one sequence share a start date.
	sort.Slice(out, func(a, b int) bool {
		ra, rb := out[a], out[b]
		switch {
		case ra.SeqID != rb.SeqID:
			return ra.SeqID < rb.SeqID
		case ra.Start != rb.Start:
			return ra.Start < rb.Start
		case ra.End != rb.End:
			return ra.End < rb.End
		default:
			return ra.Avg < rb.Avg
		}
	})
	return out, st, nil
}

// pickPlan estimates, assuming roughly uniform burst placement over the key
// span, which index touches fewer rows: start ≤ qEnd scans the left fraction
// of the start index, end ≥ qStart the right fraction of the end index.
func (db *DB) pickPlan(qStart, qEnd int64) Plan {
	if db.liveCnt == 0 || db.maxKey <= db.minKey {
		return PlanIndexStart
	}
	span := float64(db.maxKey - db.minKey)
	leftFrac := float64(qEnd-db.minKey) / span
	rightFrac := float64(db.maxKey-qStart) / span
	if leftFrac <= rightFrac {
		return PlanIndexStart
	}
	return PlanIndexEnd
}

// KeySpan returns the smallest startDate and largest endDate over all rows
// ever inserted (used by planners for selectivity estimates). ok is false
// while the table is empty.
func (db *DB) KeySpan() (min, max int64, ok bool) {
	if db.liveCnt == 0 {
		return 0, 0, false
	}
	return db.minKey, db.maxKey, true
}

// ScanStart visits live rows with startDate in [lo, hi] via the startDate
// B-tree, in startDate order, until fn returns false.
func (db *DB) ScanStart(lo, hi int64, fn func(rid int64, r Record) bool) {
	db.byStart.AscendRange(lo, hi, func(_, rid int64) bool {
		return fn(rid, db.rows[rid])
	})
}

// ScanEnd visits live rows with endDate in [lo, hi] via the endDate B-tree,
// in endDate order, until fn returns false.
func (db *DB) ScanEnd(lo, hi int64, fn func(rid int64, r Record) bool) {
	db.byEnd.AscendRange(lo, hi, func(_, rid int64) bool {
		return fn(rid, db.rows[rid])
	})
}

// ScanAll visits every live row in heap order until fn returns false.
func (db *DB) ScanAll(fn func(rid int64, r Record) bool) {
	for rid, r := range db.rows {
		if !db.live[rid] {
			continue
		}
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

// QueryByBurst finds the k sequences whose burst patterns are most similar
// to the query burst set (§6.3): candidate rows are located with the overlap
// index query for each query burst, then candidates are ranked by BSim.
// exclude (optional, may be -1) drops one sequence ID from the results —
// typically the query itself when it is already in the database.
func (db *DB) QueryByBurst(query []burst.Burst, k int, exclude int64, plan Plan) ([]Match, ScanStats, error) {
	matches, st, _, err := db.queryByBurst(query, k, exclude, plan, nil, nil)
	return matches, st, err
}

// QueryByBurstLimited is QueryByBurst under a request-lifecycle gate: every
// row touched by the overlap scans and every candidate ranked by BSim is
// one gated unit. Cancellation aborts with the context's error; budget
// exhaustion returns the matches ranked so far with truncated=true. A nil
// gate makes it identical to QueryByBurst.
func (db *DB) QueryByBurstLimited(query []burst.Burst, k int, exclude int64, plan Plan, g *lifecycle.Gate) ([]Match, ScanStats, bool, error) {
	return db.queryByBurst(query, k, exclude, plan, nil, g)
}

// BurstScanExplain is one query burst's overlap scan in an explained
// query-by-burst: the burst's span plus the work its fig. 18 query did.
type BurstScanExplain struct {
	// QueryStart and QueryEnd are the query burst's day span (inclusive).
	QueryStart int64 `json:"query_start"`
	QueryEnd   int64 `json:"query_end"`
	// Plan is the plan the optimizer executed for this burst.
	Plan string `json:"plan"`
	// RowsScanned and RowsMatched are the scan's work counters; for the two
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
// queries: the overlap scan's rows, the candidate IDs and the burst set of
// the candidate being scored. None of it outlives the query; the matches
// returned are freshly allocated.
type qbbScratch struct {
	rows   []Record
	ids    []int64
	bursts []burst.Burst
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
	defer qbbPool.Put(sc)
	// sc.ids collects candidate sequence IDs, with repeats until sorted and
	// compacted below.
	sc.ids = sc.ids[:0]
	for _, qb := range query {
		var st ScanStats
		var err error
		sc.rows, st, err = db.overlapping(int64(qb.Start), int64(qb.End), plan, g, sc.rows)
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
			if st.Plan == PlanIndexStart || st.Plan == PlanIndexEnd {
				exp.BTreeProbes += st.RowsScanned
			}
		}
		for _, r := range sc.rows {
			if r.SeqID != exclude {
				sc.ids = append(sc.ids, r.SeqID)
			}
		}
	}
	// Rank candidates in sorted-ID order so a budget that truncates the
	// ranking loop cuts a deterministic prefix.
	slices.Sort(sc.ids)
	ordered := slices.Compact(sc.ids)
	db.metrics.Candidates.Add(int64(len(ordered)))
	matches := make([]Match, 0, len(ordered))
	var gateErr error
	for _, seqID := range ordered {
		if ok, err := g.Visit(); err != nil {
			gateErr = err
			break
		} else if !ok {
			break // budget exhausted: rank only the candidates scored so far
		}
		sc.bursts = db.appendBurstsOf(sc.bursts, seqID)
		score := burst.BSim(query, sc.bursts)
		if score > 0 {
			matches = append(matches, Match{SeqID: seqID, Score: score})
		}
	}
	if gateErr != nil {
		return nil, agg, false, gateErr
	}
	db.metrics.Matches.Add(int64(len(matches)))
	if exp != nil {
		exp.Candidates = len(ordered)
		exp.Matches = len(matches)
	}
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].Score != matches[b].Score {
			return matches[a].Score > matches[b].Score
		}
		return matches[a].SeqID < matches[b].SeqID
	})
	if k < len(matches) {
		matches = matches[:k]
	}
	return matches, agg, g.Truncated(), nil
}
