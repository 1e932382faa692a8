package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

// Column identifies a burst-table attribute.
type Column int

const (
	// ColSeqID is the owning sequence's ID.
	ColSeqID Column = iota
	// ColStart is the burst's startDate (day index).
	ColStart
	// ColEnd is the burst's endDate (day index).
	ColEnd
	// ColAvg is the average burst value.
	ColAvg
)

// String implements fmt.Stringer.
func (c Column) String() string {
	switch c {
	case ColSeqID:
		return "seqID"
	case ColStart:
		return "startDate"
	case ColEnd:
		return "endDate"
	case ColAvg:
		return "avgValue"
	default:
		return fmt.Sprintf("Column(%d)", int(c))
	}
}

// Op is a comparison operator.
type Op int

const (
	// OpLT is <, OpLE is <=, OpGT is >, OpGE is >=, OpEQ is =, OpNE is <>.
	OpLT Op = iota
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

// String implements fmt.Stringer.
func (o Op) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "<>"}[o]
}

// Predicate is one `col op value` condition.
type Predicate struct {
	Col   Column
	Op    Op
	Value float64
}

// String implements fmt.Stringer.
func (p Predicate) String() string {
	return fmt.Sprintf("%v %v %g", p.Col, p.Op, p.Value)
}

// Query is the parsed statement.
type Query struct {
	// Columns is nil for `SELECT *`.
	Columns []Column
	// Where holds the conjunctive predicates (may be empty).
	Where []Predicate
	// OrderBy is the sort column; valid when HasOrder is true.
	OrderBy  Column
	Desc     bool
	HasOrder bool
	// Limit is the row cap; valid when HasLimit is true.
	Limit    int
	HasLimit bool
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) fail(msg string) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: msg}
}

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected %q, got %q", strings.ToUpper(word), t.text)}
	}
	return nil
}

// column parses a column reference, accepting an optional table qualifier
// ("b.startdate") and the paper's attribute spellings.
func column(t token) (Column, error) {
	name := t.text
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	switch name {
	case "seqid", "sequenceid", "id":
		return ColSeqID, nil
	case "startdate", "start":
		return ColStart, nil
	case "enddate", "end":
		return ColEnd, nil
	case "avgvalue", "avg", "averageburstvalue":
		return ColAvg, nil
	}
	return 0, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("unknown column %q", t.text)}
}

func operator(t token) (Op, error) {
	switch t.text {
	case "<":
		return OpLT, nil
	case "<=":
		return OpLE, nil
	case ">":
		return OpGT, nil
	case ">=":
		return OpGE, nil
	case "=":
		return OpEQ, nil
	case "<>":
		return OpNE, nil
	}
	return 0, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected comparison operator, got %q", t.text)}
}

// parse parses one SELECT statement.
func parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}

	if err := p.expectIdent("select"); err != nil {
		return nil, err
	}
	// Projection.
	if p.cur().kind == tokStar {
		p.next()
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, &SyntaxError{Pos: t.pos, Msg: "expected column name"}
			}
			col, err := column(t)
			if err != nil {
				return nil, err
			}
			q.Columns = append(q.Columns, col)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, &SyntaxError{Pos: tbl.pos, Msg: "expected table name"}
	}
	// Any table name is accepted (the paper writes FROM Database); there is
	// exactly one table.

	// WHERE clause.
	if p.cur().kind == tokIdent && p.cur().text == "where" {
		p.next()
		for {
			ct := p.next()
			if ct.kind != tokIdent {
				return nil, &SyntaxError{Pos: ct.pos, Msg: "expected column in WHERE"}
			}
			col, err := column(ct)
			if err != nil {
				return nil, err
			}
			op, err := operator(p.next())
			if err != nil {
				return nil, err
			}
			vt := p.next()
			if vt.kind != tokNumber {
				return nil, &SyntaxError{Pos: vt.pos, Msg: "expected numeric literal"}
			}
			v, err := strconv.ParseFloat(vt.text, 64)
			if err != nil {
				return nil, &SyntaxError{Pos: vt.pos, Msg: "bad number: " + vt.text}
			}
			q.Where = append(q.Where, Predicate{Col: col, Op: op, Value: v})
			if p.cur().kind == tokIdent && p.cur().text == "and" {
				p.next()
				continue
			}
			break
		}
	}

	// ORDER BY.
	if p.cur().kind == tokIdent && p.cur().text == "order" {
		p.next()
		if err := p.expectIdent("by"); err != nil {
			return nil, err
		}
		ct := p.next()
		if ct.kind != tokIdent {
			return nil, &SyntaxError{Pos: ct.pos, Msg: "expected column in ORDER BY"}
		}
		col, err := column(ct)
		if err != nil {
			return nil, err
		}
		q.OrderBy, q.HasOrder = col, true
		if p.cur().kind == tokIdent && (p.cur().text == "asc" || p.cur().text == "desc") {
			q.Desc = p.next().text == "desc"
		}
	}

	// LIMIT.
	if p.cur().kind == tokIdent && p.cur().text == "limit" {
		p.next()
		vt := p.next()
		if vt.kind != tokNumber {
			return nil, &SyntaxError{Pos: vt.pos, Msg: "expected LIMIT count"}
		}
		n, err := strconv.Atoi(vt.text)
		if err != nil || n < 0 {
			return nil, &SyntaxError{Pos: vt.pos, Msg: "bad LIMIT count"}
		}
		q.Limit, q.HasLimit = n, true
	}

	if p.cur().kind != tokEOF {
		return nil, p.fail(fmt.Sprintf("unexpected trailing input %q", p.cur().text))
	}
	return q, nil
}
