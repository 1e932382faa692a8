package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
)

// wireResult and wireResponse are the parts of the /v2/search answer the
// benchmark reads. They are declared here, not imported, so the check is of
// the wire contract and not of the program's own structs.
type wireResult struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Dist  float64 `json:"dist"`
	Score float64 `json:"score"`
}

type wireResponse struct {
	Mode        string       `json:"mode"`
	K           int          `json:"k"`
	Seq         int          `json:"seq"`
	Final       bool         `json:"final"`
	Truncated   bool         `json:"truncated"`
	Approximate bool         `json:"approximate"`
	ElapsedMS   float64      `json:"elapsed_ms"`
	QueueWaitMS float64      `json:"queue_wait_ms"`
	Results     []wireResult `json:"results"`
}

// neighbor is one oracle answer.
type neighbor struct {
	id   int
	dist float64
}

// bruteKNN is the time-domain oracle: the k standardized rows nearest to
// row q by Euclidean distance, q itself excluded, in canonical
// (distance, id) order. It shares no code with the index.
func bruteKNN(z [][]float64, q, k int) []neighbor {
	best := make([]neighbor, 0, k+1)
	zq := z[q]
	for id, row := range z {
		if id == q {
			continue
		}
		sum := 0.0
		for i, v := range zq {
			d := v - row[i]
			sum += d * d
		}
		n := neighbor{id, math.Sqrt(sum)}
		if len(best) == k && !lessNeighbor(n, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return lessNeighbor(n, best[i]) })
		best = append(best, neighbor{})
		copy(best[at+1:], best[at:])
		best[at] = n
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func lessNeighbor(a, b neighbor) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// distTol is the relative slack when comparing a served distance to the
// oracle's: the program may sum squares in another order.
const distTol = 1e-9

// matchesOracle compares a served kNN answer to the oracle's. IDs must agree
// position by position, except inside a run of equal distances, where
// floating-point summation order may legitimately reorder a tie.
func matchesOracle(got []wireResult, want []neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle has %d results, answer %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].dist) > distTol*math.Max(1, want[i].dist) {
			return fmt.Errorf("rank %d: dist %v, oracle %v (id %d vs %d)", i, got[i].Dist, want[i].dist, got[i].ID, want[i].id)
		}
		if got[i].ID != want[i].id {
			tied := false
			for _, w := range want {
				if w.id == got[i].ID && math.Abs(w.dist-want[i].dist) <= distTol*math.Max(1, w.dist) {
					tied = true
				}
			}
			if !tied {
				return fmt.Errorf("rank %d: id %d, oracle %d", i, got[i].ID, want[i].id)
			}
		}
	}
	return nil
}

// checkResults validates the result list of one answer for its family.
func checkResults(r request, res []wireResult) error {
	if r.family == famQBB {
		// Query-by-burst returns only series whose bursts overlap the
		// query's, so fewer than k is a valid answer; order is score
		// descending, then id.
		if len(res) > r.k {
			return fmt.Errorf("%d results for k=%d", len(res), r.k)
		}
		for i := 1; i < len(res); i++ {
			a, b := res[i-1], res[i]
			if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
				return fmt.Errorf("results not in (score desc, id) order at %d", i)
			}
		}
		return nil
	}
	if len(res) != r.k {
		return fmt.Errorf("%d results for k=%d", len(res), r.k)
	}
	for i, x := range res {
		if x.ID == r.id {
			return fmt.Errorf("query series %d in its own answer", r.id)
		}
		if i > 0 && lessNeighbor(neighbor{x.ID, x.Dist}, neighbor{res[i-1].ID, res[i-1].Dist}) {
			return fmt.Errorf("results not in (dist, id) order at %d", i)
		}
	}
	return nil
}

// checkSample validates one answer structurally and returns it (the final
// frame of a stream): 200, well-formed JSON, exact and complete, k ordered results;
// for a stream, frames numbered from 1 with exactly one final frame, last,
// and elapsed time never going backwards.
func checkSample(r request, s sample) (wireResponse, error) {
	var last wireResponse
	if s.err != nil {
		return last, s.err
	}
	if s.status != http.StatusOK {
		return last, fmt.Errorf("status %d: %.120s", s.status, s.body)
	}
	frames := [][]byte{s.body}
	if r.family == famStream {
		frames = bytes.Split(bytes.TrimRight(s.body, "\n"), []byte("\n"))
		if len(frames) < 2 {
			return last, fmt.Errorf("stream of %d frames, want >= 2", len(frames))
		}
	}
	prevElapsed := 0.0
	for i, f := range frames {
		var w wireResponse
		if err := json.Unmarshal(f, &w); err != nil {
			return last, fmt.Errorf("frame %d: %w", i+1, err)
		}
		if r.family == famStream {
			if w.Seq != i+1 {
				return last, fmt.Errorf("frame %d numbered %d", i+1, w.Seq)
			}
			if w.Final != (i == len(frames)-1) {
				return last, fmt.Errorf("frame %d of %d has final=%v", i+1, len(frames), w.Final)
			}
			if w.ElapsedMS < prevElapsed {
				return last, fmt.Errorf("frame %d elapsed_ms went backwards", i+1)
			}
			prevElapsed = w.ElapsedMS
		}
		last = w
	}
	if last.Truncated || last.Approximate {
		return last, fmt.Errorf("truncated=%v approximate=%v on an exact unbudgeted request", last.Truncated, last.Approximate)
	}
	return last, checkResults(r, last.Results)
}

// oracleStride is the sampling rate of the oracle check: one request-list
// position in sixteen.
const oracleStride = 16

// verdict is the outcome of validating a set of samples.
type verdict struct {
	attempted, failed int
	oracleChecked     int
	firstErr          error
	elapsedMS         []float64 // server-reported elapsed_ms of the valid answers
	queueWaitMS       []float64
}

func (v *verdict) fail(err error) {
	v.failed++
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// verify validates every sample structurally, requires repeated requests to
// repeat their answer, and compares a seeded one-in-sixteen sample of the
// kNN request positions (similar, linear, streamed) against the oracle.
func verify(reqs []request, samples []sample, z [][]float64, seed int64) *verdict {
	v := &verdict{attempted: len(samples)}
	firstIDs := map[int][]int{}
	var pending []int // request positions to send to the oracle
	answers := map[int][]wireResult{}
	for _, s := range samples {
		r := reqs[s.req]
		w, err := checkSample(r, s)
		if err != nil {
			v.fail(fmt.Errorf("request %d (%s %s): %w", s.req, r.family, r.method(), err))
			continue
		}
		res := w.Results
		v.elapsedMS = append(v.elapsedMS, w.ElapsedMS)
		v.queueWaitMS = append(v.queueWaitMS, w.QueueWaitMS)
		ids := make([]int, len(res))
		for i, x := range res {
			ids[i] = x.ID
		}
		if prev, seen := firstIDs[s.req]; seen {
			if fmt.Sprint(prev) != fmt.Sprint(ids) {
				v.fail(fmt.Errorf("request %d answered %v, earlier %v", s.req, ids, prev))
			}
			continue
		}
		firstIDs[s.req] = ids
		knn := r.family == famSimilar || r.family == famLinear || r.family == famStream
		if knn && uint64(int64(s.req)+seed)%oracleStride == 0 {
			pending = append(pending, s.req)
			answers[s.req] = res
		}
	}
	errs := make([]error, len(pending))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pending); i += 2 {
				r := reqs[pending[i]]
				if err := matchesOracle(answers[pending[i]], bruteKNN(z, r.id, r.k)); err != nil {
					errs[i] = fmt.Errorf("request %d (%s of series %d): %w", pending[i], r.family, r.id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	v.oracleChecked = len(pending)
	for _, err := range errs {
		if err != nil {
			v.fail(err)
		}
	}
	return v
}
