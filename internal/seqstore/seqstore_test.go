package seqstore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func testBackends(t *testing.T, seqLen int) map[string]Store {
	t.Helper()
	mem, err := NewMemory(seqLen)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Create(filepath.Join(t.TempDir(), "seq.bin"), seqLen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Store{"memory": mem, "disk": disk}
}

func TestAppendGetRoundTrip(t *testing.T) {
	for name, st := range testBackends(t, 16) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var want [][]float64
			for i := 0; i < 20; i++ {
				v := make([]float64, 16)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				id, err := st.Append(v)
				if err != nil {
					t.Fatal(err)
				}
				if id != i {
					t.Fatalf("id = %d, want %d", id, i)
				}
				want = append(want, v)
			}
			if st.Len() != 20 {
				t.Fatalf("Len = %d", st.Len())
			}
			for i, w := range want {
				got, err := st.Get(i)
				if err != nil {
					t.Fatal(err)
				}
				for j := range w {
					if got[j] != w[j] {
						t.Fatalf("seq %d elem %d: %v != %v", i, j, got[j], w[j])
					}
				}
			}
		})
	}
}

func TestAppendCopiesInput(t *testing.T) {
	for name, st := range testBackends(t, 4) {
		t.Run(name, func(t *testing.T) {
			v := []float64{1, 2, 3, 4}
			id, err := st.Append(v)
			if err != nil {
				t.Fatal(err)
			}
			v[0] = 99
			got, err := st.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 1 {
				t.Error("store aliased caller's slice")
			}
		})
	}
}

func TestErrors(t *testing.T) {
	for name, st := range testBackends(t, 8) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Append(make([]float64, 7)); err != ErrBadLength {
				t.Error("expected ErrBadLength on append")
			}
			if _, err := st.Get(0); err != ErrNotFound {
				t.Error("expected ErrNotFound for empty store")
			}
			if _, err := st.Append(make([]float64, 8)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(-1); err != ErrNotFound {
				t.Error("expected ErrNotFound for negative id")
			}
			if _, err := st.Get(5); err != ErrNotFound {
				t.Error("expected ErrNotFound past end")
			}
			if err := st.GetInto(0, make([]float64, 3)); err != ErrBadLength {
				t.Error("expected ErrBadLength on GetInto")
			}
		})
	}
	if _, err := NewMemory(0); err == nil {
		t.Error("expected error for zero seqLen")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "x"), -1); err == nil {
		t.Error("expected error for negative seqLen")
	}
}

func TestReadCounter(t *testing.T) {
	for name, st := range testBackends(t, 4) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Append(make([]float64, 4)); err != nil {
				t.Fatal(err)
			}
			st.ResetReads()
			for i := 0; i < 7; i++ {
				if _, err := st.Get(0); err != nil {
					t.Fatal(err)
				}
			}
			if st.Reads() != 7 {
				t.Errorf("Reads = %d, want 7", st.Reads())
			}
			// A lookup that fails its range check was not served.
			if _, err := st.Get(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(1) = %v, want ErrNotFound", err)
			}
			if err := st.GetInto(-1, make([]float64, 4)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("GetInto(-1) = %v, want ErrNotFound", err)
			}
			if rr, ok := Rows(st); ok {
				if _, err := rr.Row(1); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Row(1) = %v, want ErrNotFound", err)
				}
			}
			if st.Reads() != 7 {
				t.Errorf("Reads after failed lookups = %d, want 7", st.Reads())
			}
			st.ResetReads()
			if st.Reads() != 0 {
				t.Error("ResetReads failed")
			}
		})
	}
}

func TestDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.bin")
	d, err := Create(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := d.Append(v); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 || re.SeqLen() != 8 {
		t.Fatalf("reopened Len/SeqLen = %d/%d", re.Len(), re.SeqLen())
	}
	got, err := re.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("elem %d: %v != %v", i, got[i], v[i])
		}
	}
	// A reopened store is read-only: a write is refused and changes nothing.
	if _, err := re.Append(v); !errors.Is(err, ErrReadOnly) {
		t.Errorf("append after reopen: error %v, want ErrReadOnly", err)
	}
	if err := re.Truncate(0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("truncate after reopen: error %v, want ErrReadOnly", err)
	}
	if re.Len() != 1 {
		t.Errorf("refused writes left %d rows, want 1", re.Len())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("notmagicatall"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("expected bad-magic error")
	}
	if _, err := Open(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("expected open error for missing file")
	}
	// Truncated record data.
	trunc := filepath.Join(dir, "trunc.bin")
	d, err := Create(trunc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	fi, _ := os.Stat(trunc)
	if err := os.Truncate(trunc, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Error("expected truncated-data error")
	}
}

// Property: memory and disk backends behave identically for any workload.
func TestBackendEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%40
		rng := rand.New(rand.NewSource(seed))
		mem, _ := NewMemory(8)
		disk, err := Create(filepath.Join(t.TempDir(), "p.bin"), 8)
		if err != nil {
			return false
		}
		defer disk.Close()
		for i := 0; i < n; i++ {
			v := make([]float64, 8)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			im, _ := mem.Append(v)
			id, _ := disk.Append(v)
			if im != id {
				return false
			}
		}
		for i := 0; i < n; i++ {
			a, err1 := mem.Get(i)
			b, err2 := disk.Get(i)
			if err1 != nil || err2 != nil {
				return false
			}
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReads(t *testing.T) {
	st, err := NewMemory(32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v := make([]float64, 32)
		v[0] = float64(i)
		if _, err := st.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, err := st.Get(i % 10)
				if err != nil || v[0] != float64(i%10) {
					t.Errorf("concurrent get: %v %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkDiskGet1024(b *testing.B) {
	d, err := Create(filepath.Join(b.TempDir(), "bench.bin"), 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	v := make([]float64, 1024)
	for i := 0; i < 256; i++ {
		if _, err := d.Append(v); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.GetInto(i%256, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryGet1024(b *testing.B) {
	m, _ := NewMemory(1024)
	v := make([]float64, 1024)
	for i := 0; i < 256; i++ {
		if _, err := m.Append(v); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.GetInto(i%256, dst); err != nil {
			b.Fatal(err)
		}
	}
}
