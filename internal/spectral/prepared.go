package spectral

import "repro/internal/sketch"

// Prepared is everything an index search derives from the query alone: the
// time-domain values the refinement phase measures exact distances against,
// their quantised form for the store's sketch tier, their half-spectrum, and
// the QueryContext the bound kernels read. It is
// built once per request — by the engine for a single index, by the scatter
// layer for all of its shards — and handed down by pointer.
//
// A Prepared is immutable after Prepare returns: no method writes to it and
// a search keeps all of its mutable state elsewhere, so any number of
// concurrent searches may share one.
type Prepared struct {
	values []float64
	sketch *sketch.Query
	ctx    QueryContext
}

// Prepare computes the spectrum and bound context of values, which must
// already be in the form the index stores (z-scored, for the engine). The
// slice is retained, not copied: the caller must not modify it while the
// Prepared is in use.
func Prepare(values []float64) (*Prepared, error) {
	h, err := FromValues(values)
	if err != nil {
		return nil, err
	}
	p := &Prepared{values: values, sketch: sketch.NewQuery(values)}
	p.ctx.init(h)
	return p, nil
}

// Values returns the query's time-domain values (read-only).
func (p *Prepared) Values() []float64 { return p.values }

// Sketch returns the query quantised for sketch.Query.Exceeds.
func (p *Prepared) Sketch() *sketch.Query { return p.sketch }

// Context returns the query's bound context.
func (p *Prepared) Context() *QueryContext { return &p.ctx }
