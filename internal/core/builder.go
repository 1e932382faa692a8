package core

import (
	"time"

	"repro/internal/burst"
)

// RequestOption configures one aspect of a Request built by NewRequest.
type RequestOption func(*Request)

// NewRequest is the stable builder-style constructor for the unified query
// surface: it fixes the search family and K up front (the two fields every
// kind requires) and applies options for everything else.
//
//	req := core.NewRequest(core.KindSimilarID, core.WithID(7), core.WithK(10),
//		core.WithDeadline(50*time.Millisecond), core.WithEpsilon(0.1))
//	resp, err := engine.Query(ctx, req)
//
// The zero option set yields K=1 and the kind's defaults; invalid
// combinations surface as Query's normal validation errors.
func NewRequest(kind Kind, opts ...RequestOption) Request {
	req := Request{Kind: kind, K: 1, ID: -1}
	for _, o := range opts {
		o(&req)
	}
	return req
}

// WithK sets how many results to return (default 1).
func WithK(k int) RequestOption { return func(r *Request) { r.K = k } }

// WithID addresses an indexed series for the by-ID kinds (or the series to
// exclude, in values-mode — see Request).
func WithID(id int) RequestOption { return func(r *Request) { r.ID = id } }

// WithValues supplies the raw query curve for the by-values kinds.
func WithValues(values []float64) RequestOption {
	return func(r *Request) { r.Values = values }
}

// WithStandardizedValues supplies a pre-z-scored curve that the engine
// uses verbatim (see Request.Standardized).
func WithStandardizedValues(values []float64) RequestOption {
	return func(r *Request) { r.Values, r.Standardized = values, true }
}

// WithQueryBursts supplies a pre-detected burst pattern for the burst
// kinds (see Request.QueryBursts).
func WithQueryBursts(bursts []burst.Burst) RequestOption {
	return func(r *Request) { r.QueryBursts = bursts }
}

// WithWindow selects the burst database for the burst kinds.
func WithWindow(w BurstWindow) RequestOption { return func(r *Request) { r.Window = w } }

// WithBand sets the Sakoe–Chiba band radius (days) for KindDTW.
func WithBand(band int) RequestOption { return func(r *Request) { r.Band = band } }

// WithPeriods focuses KindSimilarPeriods on the given period lengths
// (days) at relative bin tolerance relTol (0 = default 0.05).
func WithPeriods(periods []float64, relTol float64) RequestOption {
	return func(r *Request) { r.Periods, r.RelTol = periods, relTol }
}

// WithBudget sets the whole work budget at once.
func WithBudget(b Budget) RequestOption { return func(r *Request) { r.Budget = b } }

// WithDeadline sets the wall-clock budget measured from Query entry.
func WithDeadline(d time.Duration) RequestOption {
	return func(r *Request) { r.Budget.Deadline = d }
}

// WithMaxNodeVisits caps traversal/scan units (see Budget.MaxNodeVisits).
func WithMaxNodeVisits(n int) RequestOption {
	return func(r *Request) { r.Budget.MaxNodeVisits = n }
}

// WithMaxExactDistances caps exact distance computations during refinement.
func WithMaxExactDistances(n int) RequestOption {
	return func(r *Request) { r.Budget.MaxExactDistances = n }
}

// WithApprox sets the whole quality dial at once (see Approx).
func WithApprox(a Approx) RequestOption { return func(r *Request) { r.Approx = a } }

// WithEpsilon sets the (1+ε) approximation slack (δ-ε-approximate mode).
func WithEpsilon(eps float64) RequestOption {
	return func(r *Request) { r.Approx.Epsilon = eps }
}

// WithDelta sets the sampled-stop fraction δ ∈ [0, 1].
func WithDelta(delta float64) RequestOption {
	return func(r *Request) { r.Approx.Delta = delta }
}

// WithNProbe sets the ng-approximate leaf budget.
func WithNProbe(n int) RequestOption { return func(r *Request) { r.Approx.NProbe = n } }
