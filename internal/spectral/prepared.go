package spectral

import (
	"sync"

	"repro/internal/sketch"
)

// Prepared is everything an index search derives from the query alone: the
// time-domain values the refinement phase measures exact distances against,
// their quantised form for the store's sketch tier, their half-spectrum, and
// the QueryContext the bound kernels read. It is
// built once per request — by the engine for a single index, by the scatter
// layer for all of its shards — and handed down by pointer.
//
// A Prepared is immutable between Prepare and Release: no method writes to
// it and a search keeps all of its mutable state elsewhere, so any number of
// concurrent searches may share one. Its buffers are pooled: whoever called
// Prepare calls Release once every search reading it has returned, and
// touches it no more (see docs/concurrency.md). A Prepared that is never
// released is collected like any other value.
type Prepared struct {
	values []float64
	spec   HalfSpectrum
	sketch sketch.Query
	ctx    QueryContext
}

// preparedPool recycles Prepareds with their spectrum, sketch codes and
// context tables, which every query overwrites in full.
var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// Prepare computes the spectrum and bound context of values, which must
// already be in the form the index stores (z-scored, for the engine). The
// slice is retained, not copied: the caller must not modify it while the
// Prepared is in use.
func Prepare(values []float64) (*Prepared, error) {
	p := preparedPool.Get().(*Prepared)
	if err := FromValuesInto(&p.spec, values); err != nil {
		preparedPool.Put(p)
		return nil, err
	}
	p.values = values
	p.sketch.Set(values)
	p.ctx.init(&p.spec)
	return p, nil
}

// Release hands p's buffers back for a later Prepare. It drops the values,
// so a reader that outlives the release finds an empty query — a length
// mismatch — rather than another request's.
func (p *Prepared) Release() {
	p.values = nil
	preparedPool.Put(p)
}

// Values returns the query's time-domain values (read-only).
func (p *Prepared) Values() []float64 { return p.values }

// Sketch returns the query quantised for sketch.Query.Exceeds.
func (p *Prepared) Sketch() *sketch.Query { return &p.sketch }

// Context returns the query's bound context.
func (p *Prepared) Context() *QueryContext { return &p.ctx }
