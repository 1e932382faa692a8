// Package lifecycle is the per-request enforcement point for cancellation
// and work budgets. Every search family (the similarity scan and the paper's
// tree, the sharded linear scan, the DTW cascade, burst-overlap probes)
// drives its inner loop through a *Gate, so one package decides uniformly
// when a query must stop — and whether stopping is an abort (the caller hung
// up: return ctx.Err()) or a graceful truncation (a budget ran out: return
// the best-so-far answer flagged Truncated).
//
// The distinction follows Echihabi et al. (VLDB 2020): time/work budgets
// trade answer quality for latency and must yield a usable partial answer,
// while cancellation means nobody is waiting for the result at all.
//
// Gates are deliberately cheap: context and deadline checks are amortized
// over checkStride accounting events, so the per-node overhead of a gated
// search is an integer decrement. A nil *Gate is valid everywhere and means
// "unlimited" — zero overhead on legacy paths.
package lifecycle

import (
	"context"
	"math"
	"time"
)

// Limits bounds the work a single request may perform. The zero value means
// unlimited.
type Limits struct {
	// Deadline is the absolute wall-clock instant after which the search
	// truncates (zero = none). Deadline expiry is graceful: the search
	// returns its best-so-far answer, it does not error.
	Deadline time.Time
	// MaxNodes caps accounting units of scan work: rows scanned (by the
	// similarity scan and the DTW cascade too), bursts probed, nodes of the
	// paper's tree visited (0 = unlimited).
	MaxNodes int
	// MaxExact caps exact distance computations during refinement
	// (0 = unlimited). Unlike Deadline/MaxNodes truncation, this cap is
	// never exceeded, even by the post-truncation refinement grace.
	MaxExact int
	// Epsilon is the (1+ε)-approximation slack: a search may discard any
	// object it can prove is at distance ≥ bound/(1+ε) from the query, where
	// bound would have been the exact pruning radius. 0 = exact. Every
	// ε-motivated exclusion is recorded via MarkRelaxed so the gate's
	// BoundFloor stays a sound lower bound on everything discarded.
	Epsilon float64
	// Delta is the sampled-stop fraction of the δ-ε mode: refinement may
	// skip up to a δ fraction of the tail of its lb-sorted candidate list
	// (never cutting below k candidates). Because candidates are processed
	// in increasing-lower-bound order, the skipped tail still yields a
	// proven BoundFloor. 0 = refine everything the bounds admit.
	Delta float64
	// NProbe is the ng-approximate leaf budget: the traversal stops after
	// visiting this many leaf units (tree leaves, scanned rows). Unlike
	// MaxNodes truncation the stop is an *approximation* decision — the
	// answer is flagged Approximate, not Truncated, and the bound floor
	// drops to 0 (unexplored leaves carry no proven bound). 0 = unlimited.
	NProbe int
}

// zero reports whether the limits impose no bound at all.
func (l Limits) zero() bool {
	return l.Deadline.IsZero() && l.MaxNodes <= 0 && l.MaxExact <= 0 &&
		l.Epsilon <= 0 && l.Delta <= 0 && l.NProbe <= 0
}

// checkStride is how many accounting events pass between context/deadline
// checks. An expired context therefore aborts within checkStride node
// visits, and a deadline overshoots by at most checkStride units of work.
const checkStride = 8

// Gate enforces Limits and context cancellation for one request. It is NOT
// safe for concurrent use: each worker of a sharded scan gets its own child
// gate via Split. All methods are nil-safe; a nil gate admits everything.
type Gate struct {
	ctx       context.Context // nil ⇒ never cancelled
	deadline  time.Time
	maxNodes  int
	maxExact  int
	nodes     int
	exact     int
	credit    int // events until the next ctx/deadline check
	grace     int // Exact allowances that ignore truncation (see Grace)
	truncated bool
	// Approximation spec + accounting (see Limits.Epsilon/Delta/NProbe).
	epsilon    float64
	delta      float64
	nprobe     int
	leaves     int     // leaf units visited against nprobe
	ngStopped  bool    // sticky: the leaf budget stopped the traversal
	approx     bool    // any approximation decision was taken
	boundFloor float64 // min proven lower bound over everything discarded
	// seed is the k-NN pruning radius the search starts from (see Seeded);
	// meaningful only when seeded.
	seed   float64
	seeded bool
}

// NewGate builds a gate for one request. It returns nil — the unlimited
// gate — when ctx can never be cancelled and lim is zero, so ungated legacy
// paths stay allocation-free. The first accounting event always checks the
// context, which is what makes an already-expired context abort in O(1)
// node visits even without an entry-point pre-check.
func NewGate(ctx context.Context, lim Limits) *Gate {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	if ctx == nil && lim.zero() {
		return nil
	}
	return &Gate{
		ctx:        ctx,
		deadline:   lim.Deadline,
		maxNodes:   lim.MaxNodes,
		maxExact:   lim.MaxExact,
		epsilon:    lim.Epsilon,
		delta:      lim.Delta,
		nprobe:     lim.NProbe,
		boundFloor: math.Inf(1),
		credit:     1, // check on the very first event
	}
}

// Visit accounts one unit of traversal/scan work (a tree node, a scanned
// row, a probed burst). It returns (false, err) when the request's context
// is done — abort and propagate err — and (false, nil) when a budget is
// exhausted — stop and return the best-so-far answer (Truncated reports
// true afterwards).
func (g *Gate) Visit() (bool, error) {
	if g == nil {
		return true, nil
	}
	if g.truncated || g.ngStopped {
		return false, nil
	}
	if g.maxNodes > 0 && g.nodes >= g.maxNodes {
		g.truncated = true
		return false, nil
	}
	g.nodes++
	return g.tick()
}

// Exact accounts one exact distance computation during refinement. The
// return contract matches Visit. While a Grace allowance is outstanding,
// budget truncation is ignored (cancellation is not) so a truncated
// traversal can still refine a bounded number of candidates; the explicit
// MaxExact cap always wins over grace.
func (g *Gate) Exact() (bool, error) {
	if g == nil {
		return true, nil
	}
	if g.maxExact > 0 && g.exact >= g.maxExact {
		g.truncated = true
		return false, nil
	}
	g.exact++
	if g.grace > 0 {
		g.grace--
		if g.ctx != nil {
			if err := g.ctx.Err(); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if g.truncated {
		return false, nil
	}
	return g.tick()
}

// Skip accounts one refinement candidate that a cheaper filter rejected
// without an exact distance. It spends no budget — a rejection can only
// spare work — but it runs the same amortized context/deadline check as
// Exact, so a long run of rejections still aborts within checkStride events
// of a cancellation. The return contract matches Visit; once a budget has
// truncated the search it reports (false, nil) unless a Grace allowance is
// outstanding, which, as in Exact, only cancellation overrides. (A filter
// rejects before k neighbours are known only in a Seeded search: without a
// seed the k evaluations that precede the first rejection have spent a
// truncated search's grace.)
func (g *Gate) Skip() (bool, error) {
	if g == nil {
		return true, nil
	}
	if g.truncated {
		if g.grace == 0 {
			return false, nil
		}
		if g.ctx != nil {
			if err := g.ctx.Err(); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	return g.tick()
}

// tick runs the amortized context/deadline check.
func (g *Gate) tick() (bool, error) {
	g.credit--
	if g.credit > 0 {
		return true, nil
	}
	g.credit = checkStride
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return false, err
		}
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		g.truncated = true
		return false, nil
	}
	return true, nil
}

// Check runs an immediate context check (no work accounting, no stride).
// Entry points call it before taking locks so an already-expired context
// never reaches a search at all.
func (g *Gate) Check() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}

// Grace grants n further Exact allowances that ignore Deadline/MaxNodes
// truncation. A search whose traversal truncated calls Grace(k) before
// refinement so the caller receives up to k genuinely refined best-so-far
// neighbors instead of an empty answer; the overrun is bounded by k exact
// distances. Cancellation and MaxExact still apply during grace.
func (g *Gate) Grace(n int) {
	if g == nil || n <= 0 {
		return
	}
	g.grace += n
}

// Truncated reports whether any budget (deadline, node, or exact-distance
// cap) stopped the search early. It never reports true for cancellation —
// nor for an ng-approximate leaf-budget stop, which is an approximation
// decision reported via Approximate instead.
func (g *Gate) Truncated() bool { return g != nil && g.truncated }

// Epsilon returns the request's (1+ε)-approximation slack (0 on the nil
// gate and on exact requests).
func (g *Gate) Epsilon() float64 {
	if g == nil {
		return 0
	}
	return g.epsilon
}

// Relax shrinks a pruning radius by the gate's (1+ε) factor: a search may
// discard any object it can prove is at distance ≥ Relax(bound), because the
// answer it keeps is then within (1+ε) of anything discarded. With ε = 0 (or
// a nil gate) the radius is returned unchanged, bit for bit — the exact path
// is byte-identical by construction.
func (g *Gate) Relax(bound float64) float64 {
	if g == nil || g.epsilon <= 0 {
		return bound
	}
	return bound / (1 + g.epsilon)
}

// MarkRelaxed records one approximation decision: an object (or subtree, or
// candidate tail) was discarded that the exact search would have kept, with
// floor a proven lower bound on its true distance to the query. The gate's
// BoundFloor — the minimum over all such floors — is what makes the reported
// per-result BoundGap a sound upper bound on the true error: every discarded
// object is provably at distance ≥ BoundFloor.
func (g *Gate) MarkRelaxed(floor float64) {
	if g == nil {
		return
	}
	if floor < 0 {
		floor = 0
	}
	g.approx = true
	if floor < g.boundFloor {
		g.boundFloor = floor
	}
}

// Leaf accounts one leaf unit (a tree leaf block, a scanned row) against the
// ng-approximate NProbe budget. When the budget is exhausted it returns
// false and stops the traversal like a truncation — but flags the search
// Approximate with a bound floor of 0 (unexplored leaves carry no proven
// bound) instead of Truncated. Refinement of already-collected candidates
// is unaffected. Always true on the nil gate or with NProbe = 0.
func (g *Gate) Leaf() bool {
	if g == nil || g.nprobe <= 0 {
		return true
	}
	if g.ngStopped {
		return false
	}
	if g.leaves >= g.nprobe {
		g.ngStopped = true
		g.MarkRelaxed(0)
		return false
	}
	g.leaves++
	return true
}

// DeltaCut resolves the δ sampled-stop rule for a refinement phase over n
// lb-sorted candidates: it returns how many candidates to actually refine —
// at least k (a full answer is always attempted) and at least (1−δ)·n. The
// caller must MarkRelaxed the first skipped candidate's lower bound, which
// (by the sort order) bounds the whole skipped tail. With δ = 0 it returns n.
func (g *Gate) DeltaCut(n, k int) int {
	if g == nil || g.delta <= 0 || n <= 0 {
		return n
	}
	cut := int(math.Ceil((1 - g.delta) * float64(n)))
	if cut < k {
		cut = k
	}
	if cut > n {
		cut = n
	}
	return cut
}

// Approximate reports whether any approximation decision (ε-relaxed prune,
// δ tail skip, ng leaf stop) was taken. It never reports true for an exact
// request, regardless of budgets.
func (g *Gate) Approximate() bool { return g != nil && g.approx }

// BoundFloor returns the smallest proven lower bound over every object an
// approximation decision discarded (+Inf when none was — the answer is then
// exact, budgets permitting; 0 after an ng leaf stop). The true k-NN
// distance at any rank is ≥ min(reported distance, BoundFloor), which is
// what makes BoundGap = dist/BoundFloor − 1 a sound error bound.
func (g *Gate) BoundFloor() float64 {
	if g == nil {
		return math.Inf(1)
	}
	return g.boundFloor
}

// Seeded starts g's k-NN search from the pruning radius seed instead of +Inf
// and returns g — a new gate that limits nothing when g is nil. seed must be
// the exact distance of a row the caller's answer could keep, with at least
// k such rows at or within it: the search may then drop anything it can
// prove farther than seed, and still returns every row at or within it that
// belongs to its own top k. The sharded scatter seeds its second wave's
// children with the first wave's k-th distance (package shard).
func (g *Gate) Seeded(seed float64) *Gate {
	if g == nil {
		g = &Gate{boundFloor: math.Inf(1), credit: 1}
	}
	g.seed, g.seeded = seed, true
	return g
}

// Seed returns the radius Seeded set: +Inf on the nil gate and on a gate
// never seeded.
func (g *Gate) Seed() float64 {
	if g == nil || !g.seeded {
		return math.Inf(1)
	}
	return g.seed
}

// ExactDistances returns the accounted exact computations.
func (g *Gate) ExactDistances() int {
	if g == nil {
		return 0
	}
	return g.exact
}

// Split divides the remaining budget across n workers of a sharded scan,
// returning one child gate per worker (all nil when g is nil). Node and
// exact caps are split ceiling-wise so the aggregate work stays within
// roughly the requested budget; deadline and context are shared. Children
// are independent — merge their outcomes with Absorb.
func (g *Gate) Split(n int) []*Gate {
	if n < 1 {
		n = 1
	}
	kids := make([]*Gate, n)
	if g == nil {
		return kids
	}
	share := func(total, used int) int {
		if total <= 0 {
			return 0
		}
		rem := total - used
		if rem < 1 {
			rem = 1 // keep the cap meaningful: each child may do ≥1 unit
		}
		return (rem + n - 1) / n
	}
	for i := range kids {
		kids[i] = &Gate{
			ctx:        g.ctx,
			deadline:   g.deadline,
			maxNodes:   share(g.maxNodes, g.nodes),
			maxExact:   share(g.maxExact, g.exact),
			epsilon:    g.epsilon,
			delta:      g.delta,
			nprobe:     share(g.nprobe, g.leaves),
			boundFloor: math.Inf(1),
			credit:     1,
		}
	}
	return kids
}

// Absorb folds child gates (from Split) back into g: work counters are
// summed and truncation is sticky if any child truncated.
func (g *Gate) Absorb(children ...*Gate) {
	if g == nil {
		return
	}
	for _, c := range children {
		if c == nil {
			continue
		}
		g.nodes += c.nodes
		g.exact += c.exact
		g.leaves += c.leaves
		if c.truncated {
			g.truncated = true
		}
		if c.approx {
			g.approx = true
			if c.boundFloor < g.boundFloor {
				g.boundFloor = c.boundFloor
			}
		}
	}
}
