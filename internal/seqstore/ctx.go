package seqstore

import "context"

// ctxStore wraps a Store so every read observes a request context. The
// engine installs it around the store it hands to a search, making the
// expensive operations — the random reads of full sequences during
// refinement, in-memory or on disk — fail fast with the context's error
// once the caller has hung up, even between the search's own amortized
// lifecycle checks.
type ctxStore struct {
	Store
	ctx context.Context
	// rows is the wrapped store's zero-copy reader, resolved once through
	// Rows; nil when the backend has no row views.
	rows RowReader
}

// WithContext returns a view of s whose Get/GetInto/Row fail with ctx.Err()
// once ctx is done. When ctx can never be cancelled (nil, Background, ...)
// s is returned unwrapped, so ungated paths pay nothing.
func WithContext(ctx context.Context, s Store) Store {
	if ctx == nil || ctx.Done() == nil {
		return s
	}
	rows, _ := Rows(s)
	return ctxStore{Store: s, ctx: ctx, rows: rows}
}

// Get implements Store.
func (c ctxStore) Get(id int) ([]float64, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.Store.Get(id)
}

// GetInto implements Store.
func (c ctxStore) GetInto(id int, dst []float64) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.Store.GetInto(id, dst)
}

// Row implements RowReader under the same per-read context check as
// GetInto. Callers reach it through Rows, which reports false when the
// backend has no row views.
func (c ctxStore) Row(id int) ([]float64, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if c.rows == nil {
		return nil, errNoRows
	}
	return c.rows.Row(id)
}

// Unwrap returns the wrapped store, so Rows can see through to the backend.
func (c ctxStore) Unwrap() Store { return c.Store }
