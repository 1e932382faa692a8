package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
)

// One request must not be able to kill the server: every family sizes
// buffers by k, so before k was clamped to the corpus size a request like
// /v2/search?q=cinema&k=4000000000000 died with an unrecoverable "runtime:
// out of memory". Every mode, single and sharded, must instead answer such a
// k exactly as it answers k = Len().
func TestHugeKIsClampedToTheCorpus(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 96, 7)
	data := append(g.Exemplars(), g.Dataset(20)...)
	for _, shards := range []int{1, 3} {
		s, err := NewFromConfig(data, core.Config{Budget: 8, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := core.V2SearchHandler(s)
		get := func(url string) []core.V2Result {
			t.Helper()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			var resp core.V2Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("shards=%d %s: status %d, %v: %.200s", shards, url, rec.Code, err, rec.Body.String())
			}
			return resp.Results
		}
		for _, mode := range []string{"similar", "linear", "dtw&band=5", "periods&period=8", "qbb"} {
			base := "/v2/search?q=" + querylog.Cinema + "&mode=" + mode
			want := get(fmt.Sprintf("%s&k=%d", base, len(data)))
			if mode != "qbb" && len(want) != len(data)-1 {
				t.Fatalf("shards=%d %s: k=n returned %d results, want all %d others", shards, mode, len(want), len(data)-1)
			}
			for _, k := range []int{math.MaxInt32, 1 << 42} {
				got := get(fmt.Sprintf("%s&k=%d", base, k))
				if len(got) != len(want) {
					t.Fatalf("shards=%d %s k=%d: %d results, k=n gives %d", shards, mode, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d %s k=%d: result %d = %+v, k=n gives %+v", shards, mode, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
