package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
)

// corpus is one generated dataset: the raw series the program is fed, and
// their standardized values for the brute-force oracle.
type corpus struct {
	data []*series.Series
	z    [][]float64
	path string // genlog binary file (+ path.names), "" until written
	days int
}

// newCorpus generates n series of the given length from seed, exactly as
// cmd/genlog does, so every input is a pure function of the seed.
func newCorpus(n, days int, seed int64) *corpus {
	g := querylog.NewGenerator(querylog.DefaultStart, days, seed)
	c := &corpus{data: g.Dataset(n), days: days}
	c.z = make([][]float64, n)
	for i, s := range c.data {
		c.z[i] = s.Standardized().Values
	}
	return c
}

// heldOut generates n series that are in no corpus of the same seed: the
// generator is advanced past the corpus first, so they are fresh draws.
func heldOut(corpusSize, n, days int, seed int64) []*series.Series {
	g := querylog.NewGenerator(querylog.DefaultStart, days, seed)
	g.Dataset(corpusSize)
	return g.Queries(n)
}

// write stores the corpus in the genlog binary format: a seqstore file plus
// the ".names" sidecar, which `s2 -load` reads back.
func (c *corpus) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	st, err := seqstore.Create(path, c.days)
	if err != nil {
		return fmt.Errorf("create corpus: %w", err)
	}
	defer func() {
		if cerr := st.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close corpus: %w", cerr)
		}
	}()
	nf, err := os.Create(path + ".names")
	if err != nil {
		return err
	}
	defer nf.Close()
	nw := bufio.NewWriter(nf)
	for _, s := range c.data {
		if _, err := st.Append(s.Values); err != nil {
			return fmt.Errorf("append corpus row: %w", err)
		}
		fmt.Fprintln(nw, s.Name)
	}
	if err := nw.Flush(); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return fmt.Errorf("sync corpus: %w", err)
	}
	c.path = path
	return nil
}

// Search families a request can belong to. "stream" is mode=similar with
// stream=ndjson (progressive answering).
const (
	famSimilar = "similar"
	famLinear  = "linear"
	famQBB     = "qbb"
	famDTW     = "dtw"
	famPeriods = "periods"
	famStream  = "stream"
)

// request is one /v2/search call, in every form a replay level needs: the
// wire form for the real binary and the httptest handler, and the decoded
// id/k for the engine-level replays and the oracle.
type request struct {
	family string
	id     int // ordinal of the query series in the corpus
	k      int
	post   bool
	query  string // raw query string (GET) — empty for POST
	body   []byte // JSON body (POST)
}

func (r request) method() string {
	if r.post {
		return "POST"
	}
	return "GET"
}

// newRequest builds the wire form of one request against series id.
func newRequest(c *corpus, family string, id, k int, post bool) request {
	r := request{family: family, id: id, k: k, post: post}
	v2 := core.V2Request{Query: c.data[id].Name, K: k, Mode: family}
	switch family {
	case famStream:
		v2.Mode, v2.Stream = "similar", "ndjson"
	case famDTW:
		v2.Band = 7
	case famPeriods:
		v2.Periods = []float64{7, 30}
	}
	if post {
		r.body, _ = json.Marshal(v2) //nolint:errcheck // plain struct
		return r
	}
	q := url.Values{"q": {v2.Query}, "k": {strconv.Itoa(k)}, "mode": {v2.Mode}}
	if v2.Stream != "" {
		q.Set("stream", v2.Stream)
	}
	if family == famDTW {
		q.Set("band", "7")
	}
	if family == famPeriods {
		q.Set("period", "7,30")
	}
	r.query = q.Encode()
	return r
}

// archetypes is how many shape classes querylog.Generator.Dataset cycles
// through by ordinal: series i is of class i % archetypes.
const archetypes = 9

// spreadRequests draws n requests of one family over query series that are
// uniform over ordinals within a shape class and cycle through the classes,
// so every window of the list hits all nine archetypes equally whatever the
// seed (a query's cost depends far more on its class than on the instance).
// first is the position of the list's first request in that cycle. With
// alternate set, odd positions are POSTs.
func spreadRequests(c *corpus, rng *rand.Rand, family string, first, n, k int, alternate bool) []request {
	out := make([]request, n)
	for i := range out {
		id := archetypes*rng.Intn(len(c.data)/archetypes) + (first+i)%archetypes
		out[i] = newRequest(c, family, id, k, alternate && i%2 == 1)
	}
	return out
}

// familyMix is the interleaved request list of the `families` workload, in
// blocks of 160 requests: 60 qbb, 60 linear, 30 streamed similar, 6 dtw and
// 4 periods (the issue's 3000:3000:1500:300:200), shuffled within the block
// by the seed, so every stretch of the list holds the families in the same
// proportion.
func familyMix(c *corpus, rng *rand.Rand, n int) []request {
	parts := []struct {
		family string
		share  int
	}{{famQBB, 60}, {famLinear, 60}, {famStream, 30}, {famDTW, 6}, {famPeriods, 4}}
	out := make([]request, 0, n)
	for b := 0; len(out) < n; b++ {
		start := len(out)
		for _, p := range parts {
			out = append(out, spreadRequests(c, rng, p.family, b*p.share, p.share, 10, false)...)
		}
		block := out[start:]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return out[:n]
}
