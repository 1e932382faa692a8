package seqstore

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// farFrom reports, through the store's sketch, whether row id is provably
// more than bound away from the two-point query (x, y).
func farFrom(s Store, id int, x, y, bound float64) bool {
	return new(sketch.Query).Set([]float64{x, y}).Exceeds(NewReader(s).Sketch(), id, bound)
}

// sumsInStep fails the test if a sketch row's stored ΣX² (what the vector
// kernel's closed form trusts) is not that of the row's codes.
func sumsInStep(t *testing.T, when string, s Store) {
	t.Helper()
	if err := NewReader(s).Sketch().CheckSums(); err != nil {
		t.Errorf("%s: %v", when, err)
	}
}

// Both backends keep a sketch row per stored row, codes and ΣX² alike, through
// Append and Truncate, a reopened disk store rebuilds it from the file, and
// Reader finds it through the context and instrumentation wrappers — but not
// through a wrapper that does not unwrap.
func TestSketchFollowsTheRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, s := range testBackends(t, 2) {
		for i := 0; i < 5; i++ {
			if _, err := s.Append([]float64{float64(i), 0}); err != nil {
				t.Fatal(err)
			}
		}
		sumsInStep(t, name+" after append", s)
		wrapped := WithContext(ctx, Instrument(s, obs.NewRegistry()))
		for _, view := range []Store{s, wrapped} {
			if got := NewReader(view).Sketch().Len(); got != 5 {
				t.Fatalf("%s: sketch covers %d rows, want 5", name, got)
			}
			if !farFrom(view, 4, 0.25, 0, 3) || farFrom(view, 4, 0.25, 0, 4) || farFrom(view, 5, 0.25, 0, 0) {
				t.Errorf("%s: row 4 = (4, 0) is not sketched as such", name)
			}
		}
		if err := s.Truncate(3); err != nil {
			t.Fatal(err)
		}
		sumsInStep(t, name+" after truncate", s)
		if _, err := s.Append([]float64{100, 0}); err != nil {
			t.Fatal(err)
		}
		sumsInStep(t, name+" after truncate and append", s)
		if got := NewReader(wrapped).Sketch().Len(); got != 4 {
			t.Fatalf("%s: sketch covers %d rows after truncate+append, want 4", name, got)
		}
		if !farFrom(wrapped, 3, 0.25, 0, 90) || farFrom(wrapped, 3, 100, 0, 0) {
			t.Errorf("%s: row 3 is not the re-appended (100, 0)", name)
		}
		if NewReader(struct{ Store }{s}).Sketch().Len() != 0 {
			t.Errorf("%s: a wrapper without Unwrap exposed the backend's sketch", name)
		}
	}

	path := filepath.Join(t.TempDir(), "seq.bin")
	d, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := d.Append([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := NewReader(re).Sketch().Len(); got != 300 {
		t.Fatalf("reopened: sketch covers %d rows, want 300", got)
	}
	if !farFrom(re, 299, 0, 1, 298) || farFrom(re, 299, 299, 1, 0) {
		t.Error("reopened: row 299 is not sketched as (299, 1)")
	}
	sumsInStep(t, "reopened", re)
	// A reopened store refuses a row, and its sketch stays the file's.
	if _, err := re.Append([]float64{-77, 3}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append to a reopened store: error %v, want ErrReadOnly", err)
	}
	if got := NewReader(re).Sketch().Len(); got != 300 {
		t.Fatalf("reopened, append refused: sketch covers %d rows, want 300", got)
	}
}

// One writer appending and truncating beside readers that snapshot the
// sketch and test rows it covers: the seqstore concurrency contract, for the
// race detector.
func TestSketchConcurrentWithWriter(t *testing.T) {
	for name, s := range testBackends(t, 2) {
		for i := 0; i < 8; i++ {
			if _, err := s.Append([]float64{float64(i), 0}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := new(sketch.Query).Set([]float64{0, 0.25})
				for {
					select {
					case <-stop:
						return
					default:
					}
					sk := NewReader(s).Sketch()
					for id := 1; id < 8; id++ { // never truncated below 8; row id is just over id away
						if !q.Exceeds(sk, id, float64(id)-0.5) || q.Exceeds(sk, id, float64(id)+0.5) {
							t.Errorf("%s: row %d is not sketched as (%d, 0)", name, id, id)
							return
						}
					}
				}
			}()
		}
		for i := 0; i < 200; i++ {
			if _, err := s.Append([]float64{1000, float64(i)}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := s.Truncate(8); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
	}
}

// Sketching a reopened store sizes its codes once: 4 096 rows of 1 024
// points allocate the codes, their row metadata and the read buffers, not
// the ≈ 5× the codes that growing them a row at a time costs.
func TestSketchOfAReopenedStoreAllocatesItsCodesOnce(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows, n = 4096, 1024
	path := filepath.Join(t.TempDir(), "z.bin")
	d, err := Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n)
	for i := range rows {
		for j := range row {
			row[j] = math.Sin(float64(i*n + j))
		}
		if _, err := d.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := uint64(math.MaxUint64)
	for range 3 { // the fewest bytes of three: whatever else allocates only adds
		d, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := d.Sketch().Len()
		runtime.ReadMemStats(&after)
		d.Close()
		if got != rows {
			t.Fatalf("the sketch covers %d rows of %d", got, rows)
		}
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	const codes = rows * n
	const readBuffers = 1<<20 + 2*8*n // the sequential reader, a record and a row
	if limit := uint64(codes*11/10 + readBuffers); allocated > limit {
		t.Fatalf("sketching %d rows allocated %d B, more than %d: 1.1× the %d B of codes and the read buffers", rows, allocated, limit, codes)
	}
	t.Logf("sketching %d rows allocated %d B for %d B of codes", rows, allocated, codes)
}
