package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// entries returns every (key, value) entry in order.
func entries(bt *BTree) [][2]int64 {
	var out [][2]int64
	bt.AscendRange(math.MinInt64, math.MaxInt64, func(k, v int64) bool {
		out = append(out, [2]int64{k, v})
		return true
	})
	return out
}

// count returns the number of entries with the given key.
func count(bt *BTree, key int64) int {
	n := 0
	bt.AscendRange(key, key, func(int64, int64) bool { n++; return true })
	return n
}

func TestNewErrors(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("expected error for order 2")
	}
	bt, err := New(MinOrder)
	if err != nil || bt.order != MinOrder {
		t.Errorf("New(MinOrder) = %v, %v", bt, err)
	}
}

func TestInsertAndAscend(t *testing.T) {
	bt, _ := New(4)
	keys := []int64{5, 3, 8, 1, 9, 7, 2, 6, 4, 0}
	for _, k := range keys {
		bt.Insert(k, k*10)
	}
	if bt.Len() != 10 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	got := entries(bt)
	for i := int64(0); i < 10; i++ {
		if got[i] != [2]int64{i, i * 10} {
			t.Fatalf("ascend order wrong: %v", got)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	bt, _ := New(4)
	for v := int64(0); v < 50; v++ {
		bt.Insert(7, v)
	}
	bt.Insert(3, 1)
	bt.Insert(9, 2)
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := count(bt, 7); got != 50 {
		t.Errorf("count(7) = %d", got)
	}
	if count(bt, 3) != 1 || count(bt, 4) != 0 {
		t.Error("count wrong")
	}
	// A duplicate (key, value) pair is not stored twice.
	if bt.Insert(7, 25) {
		t.Fatal("second Insert(7,25) should fail")
	}
	if got := count(bt, 7); got != 50 {
		t.Errorf("count(7) after re-insert = %d", got)
	}
}

func TestAscendRange(t *testing.T) {
	bt, _ := New(6)
	for k := int64(0); k < 100; k++ {
		bt.Insert(k, 0)
	}
	var got []int64
	bt.AscendRange(30, 40, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 11 || got[0] != 30 || got[10] != 40 {
		t.Errorf("AscendRange(30,40) = %v", got)
	}
	// Early termination.
	calls := 0
	bt.AscendRange(0, 99, func(k, v int64) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop made %d calls", calls)
	}
}

func TestAscendLessGreater(t *testing.T) {
	bt, _ := New(4)
	for k := int64(0); k < 20; k++ {
		bt.Insert(k, 0)
	}
	// Ranges open at either end of int64, as the one-sided overlap plans
	// scan them.
	var less, greater []int64
	bt.AscendRange(math.MinInt64, 4, func(k, v int64) bool { less = append(less, k); return true })
	bt.AscendRange(16, math.MaxInt64, func(k, v int64) bool { greater = append(greater, k); return true })
	if len(less) != 5 || less[4] != 4 {
		t.Errorf("AscendRange(MinInt64, 4) = %v", less)
	}
	if len(greater) != 4 || greater[0] != 16 {
		t.Errorf("AscendRange(16, MaxInt64) = %v", greater)
	}
}

func TestHeightGrowth(t *testing.T) {
	bt, _ := New(4)
	if bt.Height() != 1 {
		t.Error("empty tree height != 1")
	}
	for k := int64(0); k < 1000; k++ {
		bt.Insert(k, 0)
	}
	h := bt.Height()
	if h < 4 || h > 12 {
		t.Errorf("height %d for 1000 sequential inserts at order 4", h)
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// model is the reference implementation: a sorted slice of composites.
type model struct {
	entries [][2]int64
}

func (m *model) insert(k, v int64) bool {
	pos := sort.Search(len(m.entries), func(i int) bool {
		e := m.entries[i]
		return e[0] > k || (e[0] == k && e[1] > v)
	})
	if pos > 0 && m.entries[pos-1] == [2]int64{k, v} {
		return false
	}
	m.entries = append(m.entries, [2]int64{})
	copy(m.entries[pos+1:], m.entries[pos:])
	m.entries[pos] = [2]int64{k, v}
	return true
}

// Property: the B+tree behaves identically to the sorted-slice model under
// random inserts (duplicate pairs among them), across several orders, and
// stays structurally valid.
func TestModelEquivalenceProperty(t *testing.T) {
	f := func(seed int64, orderRaw uint8) bool {
		order := 3 + int(orderRaw)%14
		rng := rand.New(rand.NewSource(seed))
		bt, err := New(order)
		if err != nil {
			return false
		}
		m := &model{}
		for op := 0; op < 400; op++ {
			k := int64(rng.Intn(60))
			v := int64(rng.Intn(10))
			if bt.Insert(k, v) != m.insert(k, v) {
				t.Logf("insert(%d,%d) disagreement", k, v)
				return false
			}
		}
		if err := bt.Validate(); err != nil {
			t.Log(err)
			return false
		}
		if bt.Len() != len(m.entries) {
			t.Logf("len %d vs model %d", bt.Len(), len(m.entries))
			return false
		}
		got := entries(bt)
		if len(got) != len(m.entries) {
			return false
		}
		for i := range got {
			if got[i] != m.entries[i] {
				t.Logf("entry %d: %v vs %v", i, got[i], m.entries[i])
				return false
			}
		}
		// Range queries agree on a few random ranges.
		for r := 0; r < 5; r++ {
			lo := int64(rng.Intn(60))
			hi := lo + int64(rng.Intn(20))
			var a, b int
			bt.AscendRange(lo, hi, func(int64, int64) bool { a++; return true })
			for _, e := range m.entries {
				if e[0] >= lo && e[0] <= hi {
					b++
				}
			}
			if a != b {
				t.Logf("range [%d,%d]: %d vs %d", lo, hi, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNegativeKeys(t *testing.T) {
	bt, _ := New(4)
	for _, k := range []int64{-5, 3, -1, 0, 7, -9} {
		bt.Insert(k, k)
	}
	got := entries(bt)
	want := []int64{-9, -5, -1, 0, 3, 7}
	for i := range want {
		if got[i][0] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	bt, _ := New(DefaultOrder)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Insert(rng.Int63n(1<<30), int64(i))
	}
}

func BenchmarkRangeScan(b *testing.B) {
	bt, _ := New(DefaultOrder)
	for k := int64(0); k < 100000; k++ {
		bt.Insert(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		bt.AscendRange(5000, 6000, func(int64, int64) bool { n++; return true })
		if n != 1001 {
			b.Fatal("bad scan")
		}
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 31, 32, 33, 300, 1000} {
		for _, order := range []int{3, 4, 8, 32} {
			keys := make([]int64, n)
			vals := make([]int64, n)
			for i := range keys {
				keys[i] = int64(i / 3) // duplicate keys, distinct values
				vals[i] = int64(i)
			}
			bulk, err := BulkLoad(order, keys, vals)
			if err != nil {
				t.Fatalf("n=%d order=%d: %v", n, order, err)
			}
			if err := bulk.Validate(); err != nil {
				t.Fatalf("n=%d order=%d: %v", n, order, err)
			}
			ref, _ := New(order)
			for i := range keys {
				ref.Insert(keys[i], vals[i])
			}
			if bulk.Len() != ref.Len() {
				t.Fatalf("n=%d order=%d: Len %d vs %d", n, order, bulk.Len(), ref.Len())
			}
			a, b := entries(bulk), entries(ref)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d order=%d entry %d: %v vs %v", n, order, i, a[i], b[i])
				}
			}
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	keys := make([]int64, 200)
	vals := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i)
	}
	bt, err := BulkLoad(4, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded tree must accept ordinary inserts: between its entries,
	// where they split its packed leaves, and past its end.
	for i := int64(0); i < 200; i += 2 {
		if !bt.Insert(i, i+1) {
			t.Fatalf("Insert(%d, %d) failed", i, i+1)
		}
	}
	for i := int64(500); i < 550; i++ {
		if !bt.Insert(i, i) {
			t.Fatalf("Insert(%d) failed", i)
		}
	}
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 350 {
		t.Errorf("Len = %d, want 350", bt.Len())
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoad(2, nil, nil); err == nil {
		t.Error("expected order error")
	}
	if _, err := BulkLoad(4, []int64{1}, nil); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := BulkLoad(4, []int64{2, 1}, []int64{0, 0}); err == nil {
		t.Error("expected unsorted error")
	}
	if _, err := BulkLoad(4, []int64{1, 1}, []int64{5, 5}); err == nil {
		t.Error("expected duplicate-composite error")
	}
}

// Property: bulk load is Validate-clean and enumerates its input for random
// sizes and orders.
func TestBulkLoadProperty(t *testing.T) {
	f := func(seed int64, orderRaw uint8) bool {
		order := 3 + int(orderRaw)%20
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(800)
		keys := make([]int64, n)
		vals := make([]int64, n)
		k := int64(0)
		for i := 0; i < n; i++ {
			k += int64(rng.Intn(3)) // duplicates allowed via value tiebreak
			keys[i] = k
			vals[i] = int64(i)
		}
		bt, err := BulkLoad(order, keys, vals)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := bt.Validate(); err != nil {
			t.Logf("n=%d order=%d: %v", n, order, err)
			return false
		}
		got := entries(bt)
		if len(got) != n {
			return false
		}
		for i, e := range got {
			if e != [2]int64{keys[i], vals[i]} {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBulkLoadVsInserts(b *testing.B) {
	const n = 100000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i)
	}
	b.Run("bulkload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BulkLoad(DefaultOrder, keys, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inserts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bt, _ := New(DefaultOrder)
			for j := range keys {
				bt.Insert(keys[j], vals[j])
			}
		}
	})
}

// Height returns the tree height (a lone leaf is height 1).
func (t *BTree) Height() int {
	h := 1
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return h
		}
		h++
		n = in.children[0]
	}
}
