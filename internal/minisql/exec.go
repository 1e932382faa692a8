package minisql

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/burstdb"
)

// Access describes the chosen access path.
type Access int

const (
	// AccessFullScan reads the heap table.
	AccessFullScan Access = iota
	// AccessIndexStart range-scans the startDate B-tree.
	AccessIndexStart
	// AccessIndexEnd range-scans the endDate B-tree.
	AccessIndexEnd
)

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case AccessFullScan:
		return "fullscan(bursts)"
	case AccessIndexStart:
		return "indexscan(bursts.startDate)"
	case AccessIndexEnd:
		return "indexscan(bursts.endDate)"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Plan is the executor's EXPLAIN output.
type Plan struct {
	Access Access
	// Lo and Hi are the index scan range (valid for index access).
	Lo, Hi int64
	// Residual are the predicates re-checked per row.
	Residual []Predicate
	// EstFraction is the planner's selectivity estimate for the access path.
	EstFraction float64
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	s := p.Access.String()
	if p.Access != AccessFullScan {
		switch {
		case p.Lo <= unboundedLo && p.Hi >= unboundedHi:
			s += " range (-inf,+inf)"
		case p.Lo <= unboundedLo:
			s += fmt.Sprintf(" range (-inf,%d]", p.Hi)
		case p.Hi >= unboundedHi:
			s += fmt.Sprintf(" range [%d,+inf)", p.Lo)
		default:
			s += fmt.Sprintf(" range [%d,%d]", p.Lo, p.Hi)
		}
	}
	if len(p.Residual) > 0 {
		s += " filter("
		for i, r := range p.Residual {
			if i > 0 {
				s += " AND "
			}
			s += r.String()
		}
		s += ")"
	}
	return s
}

// Result holds the rows and execution metadata of one query.
type Result struct {
	// Records are the matching rows (ordered per ORDER BY, capped per LIMIT).
	Records []burstdb.Record
	// Columns is the projection (nil = all columns).
	Columns []Column
	// Plan is the access path used.
	Plan Plan
	// Scanned counts rows touched by the access path.
	Scanned int
}

func colValue(r burstdb.Record, c Column) float64 {
	switch c {
	case ColSeqID:
		return float64(r.SeqID)
	case ColStart:
		return float64(r.Start)
	case ColEnd:
		return float64(r.End)
	default:
		return r.Avg
	}
}

// matches evaluates one predicate against a record.
func (p Predicate) matches(r burstdb.Record) bool {
	v := colValue(r, p.Col)
	switch p.Op {
	case OpLT:
		return v < p.Value
	case OpLE:
		return v <= p.Value
	case OpGT:
		return v > p.Value
	case OpGE:
		return v >= p.Value
	case OpEQ:
		return v == p.Value
	default: // OpNE
		return v != p.Value
	}
}

// intRange tightens an integer key range [lo, hi] with one predicate.
// Ranges on ColStart/ColEnd are integral day indices, so `< v` becomes
// `≤ ceil(v)−1` and `> v` becomes `≥ floor(v)+1`. The literal is first
// clamped into [unboundedLo, unboundedHi]: no key lies beyond those ends,
// and converting a float outside int64's range to int64 is undefined (on
// amd64 it yields MinInt64, which would empty the range).
func intRange(lo, hi int64, p Predicate) (int64, int64) {
	v := math.Max(float64(unboundedLo), math.Min(p.Value, float64(unboundedHi)))
	switch p.Op {
	case OpLT:
		if b := int64(math.Ceil(v)) - 1; b < hi {
			hi = b
		}
	case OpLE:
		if b := int64(math.Floor(v)); b < hi {
			hi = b
		}
	case OpGT:
		if b := int64(math.Floor(v)) + 1; b > lo {
			lo = b
		}
	case OpGE:
		if b := int64(math.Ceil(v)); b > lo {
			lo = b
		}
	case OpEQ:
		if v == math.Trunc(v) {
			if int64(v) > lo {
				lo = int64(v)
			}
			if int64(v) < hi {
				hi = int64(v)
			}
		} else {
			// Equality with a non-integer never matches an int column.
			lo, hi = 1, 0
		}
	}
	return lo, hi
}

// unboundedLo and unboundedHi mark "no constraint" scan ends (kept a factor
// away from the int64 extremes so range arithmetic cannot overflow).
const (
	unboundedLo = int64(math.MinInt64 / 4)
	unboundedHi = int64(math.MaxInt64 / 4)
)

// exec plans and runs the query against db.
func exec(db *burstdb.DB, q *Query) (*Result, error) {
	startLo, startHi := unboundedLo, unboundedHi
	endLo, endHi := unboundedLo, unboundedHi
	for _, p := range q.Where {
		switch p.Col {
		case ColStart:
			startLo, startHi = intRange(startLo, startHi, p)
		case ColEnd:
			endLo, endHi = intRange(endLo, endHi, p)
		}
	}

	plan := Plan{Access: AccessFullScan, Residual: q.Where, EstFraction: 1}
	if lo, hi, ok := db.KeySpan(); ok {
		span := float64(hi-lo) + 1
		fracOf := func(rlo, rhi int64) float64 {
			if rlo > rhi {
				return 0
			}
			clo, chi := float64(rlo), float64(rhi)
			if clo < float64(lo) {
				clo = float64(lo)
			}
			if chi > float64(hi) {
				chi = float64(hi)
			}
			if clo > chi {
				return 0
			}
			return (chi - clo + 1) / span
		}
		fs := fracOf(startLo, startHi)
		fe := fracOf(endLo, endHi)
		boundedStart := startLo != unboundedLo || startHi != unboundedHi
		boundedEnd := endLo != unboundedLo || endHi != unboundedHi
		switch {
		case boundedStart && (!boundedEnd || fs <= fe):
			plan = Plan{Access: AccessIndexStart, Lo: startLo, Hi: startHi,
				Residual: q.Where, EstFraction: fs}
		case boundedEnd:
			plan = Plan{Access: AccessIndexEnd, Lo: endLo, Hi: endHi,
				Residual: q.Where, EstFraction: fe}
		}
	}

	res := &Result{Columns: q.Columns, Plan: plan}
	collect := func(rid int64, r burstdb.Record) bool {
		res.Scanned++
		for _, p := range q.Where {
			if !p.matches(r) {
				return true
			}
		}
		res.Records = append(res.Records, r)
		// Without ORDER BY the scan can stop at LIMIT.
		if q.HasLimit && !q.HasOrder && len(res.Records) >= q.Limit {
			return false
		}
		return true
	}
	switch plan.Access {
	case AccessIndexStart:
		db.ScanStart(plan.Lo, plan.Hi, collect)
	case AccessIndexEnd:
		db.ScanEnd(plan.Lo, plan.Hi, collect)
	default:
		db.ScanAll(collect)
	}

	if q.HasOrder {
		col, desc := q.OrderBy, q.Desc
		sort.SliceStable(res.Records, func(a, b int) bool {
			va, vb := colValue(res.Records[a], col), colValue(res.Records[b], col)
			if desc {
				return va > vb
			}
			return va < vb
		})
	}
	if q.HasLimit && len(res.Records) > q.Limit {
		res.Records = res.Records[:q.Limit]
	}
	return res, nil
}

// Run parses and executes input against db in one call.
func Run(db *burstdb.DB, input string) (*Result, error) {
	q, err := parse(input)
	if err != nil {
		return nil, err
	}
	return exec(db, q)
}
