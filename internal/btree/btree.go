// Package btree implements an in-memory B+tree keyed by (int64 key,
// int64 value) composites with duplicate keys allowed — the index structure
// the paper's query-by-burst execution relies on ("this procedure is
// extremely efficient, if we create an index (basically a B-tree) on the
// startDate and endDate attributes", §6.3 / fig. 18).
//
// Leaves are chained for ordered range scans; internal nodes route by
// composite separators, so an insert finds its one place by descent even
// under heavy key duplication. The tree only grows: the burst table it
// indexes never removes a row.
package btree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MinOrder is the smallest supported tree order (max children per node).
const MinOrder = 3

// DefaultOrder is a reasonable fan-out for in-memory use.
const DefaultOrder = 32

// BTree is a B+tree multimap from int64 keys to int64 values.
type BTree struct {
	order int
	root  node
	size  int
	first *leaf // leftmost leaf, head of the scan chain
}

type node interface {
	// minEntries/child invariants are enforced via validate in tests.
}

type leaf struct {
	keys []int64
	vals []int64
	next *leaf
}

type inner struct {
	// sepKeys/sepVals are composite separators; children[i] holds entries
	// strictly below separator i (composite order), children[len] the rest.
	sepKeys  []int64
	sepVals  []int64
	children []node
}

// New creates a B+tree of the given order (max children per internal node).
func New(order int) (*BTree, error) {
	if order < MinOrder {
		return nil, errors.New("btree: order must be >= 3")
	}
	lf := &leaf{}
	return &BTree{order: order, root: lf, first: lf}, nil
}

// cmp orders composites: by key, then by value.
func cmp(k1, v1, k2, v2 int64) int {
	switch {
	case k1 < k2:
		return -1
	case k1 > k2:
		return 1
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	default:
		return 0
	}
}

// maxLeafEntries is the per-leaf capacity.
func (t *BTree) maxLeafEntries() int { return t.order - 1 }

// minLeafEntries is the underflow threshold for non-root leaves.
func (t *BTree) minLeafEntries() int { return t.maxLeafEntries() / 2 }

// minChildren is the underflow threshold for non-root internal nodes.
func (t *BTree) minChildren() int { return (t.order + 1) / 2 }

// Len returns the number of stored entries.
func (t *BTree) Len() int { return t.size }

// ---------------------------------------------------------------------------
// Insert

// Insert adds the (key, value) entry and reports whether it was added.
// Duplicate keys are fine (this is a multimap), but each exact (key, value)
// pair is stored at most once — values are record IDs in this system, so
// re-inserting an existing pair is a no-op returning false.
func (t *BTree) Insert(key, val int64) bool {
	sepK, sepV, right, added := t.insert(t.root, key, val)
	if right != nil {
		t.root = &inner{
			sepKeys:  []int64{sepK},
			sepVals:  []int64{sepV},
			children: []node{t.root, right},
		}
	}
	if added {
		t.size++
	}
	return added
}

func (t *BTree) insert(n node, key, val int64) (sepK, sepV int64, right node, added bool) {
	switch n := n.(type) {
	case *leaf:
		pos := sort.Search(len(n.keys), func(i int) bool {
			return cmp(key, val, n.keys[i], n.vals[i]) < 0
		})
		if pos > 0 && cmp(key, val, n.keys[pos-1], n.vals[pos-1]) == 0 {
			return 0, 0, nil, false // exact pair already present
		}
		n.keys = append(n.keys, 0)
		n.vals = append(n.vals, 0)
		copy(n.keys[pos+1:], n.keys[pos:])
		copy(n.vals[pos+1:], n.vals[pos:])
		n.keys[pos], n.vals[pos] = key, val
		if len(n.keys) <= t.maxLeafEntries() {
			return 0, 0, nil, true
		}
		// Split: right half moves to a new leaf.
		mid := len(n.keys) / 2
		r := &leaf{
			keys: append([]int64(nil), n.keys[mid:]...),
			vals: append([]int64(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = r
		return r.keys[0], r.vals[0], r, true

	case *inner:
		ci := t.route(n, key, val)
		sk, sv, r, added := t.insert(n.children[ci], key, val)
		if r == nil {
			return 0, 0, nil, added
		}
		n.sepKeys = append(n.sepKeys, 0)
		n.sepVals = append(n.sepVals, 0)
		copy(n.sepKeys[ci+1:], n.sepKeys[ci:])
		copy(n.sepVals[ci+1:], n.sepVals[ci:])
		n.sepKeys[ci], n.sepVals[ci] = sk, sv
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = r
		if len(n.children) <= t.order {
			return 0, 0, nil, true
		}
		// Split the internal node: promote the middle separator.
		mid := len(n.sepKeys) / 2
		promoK, promoV := n.sepKeys[mid], n.sepVals[mid]
		ri := &inner{
			sepKeys:  append([]int64(nil), n.sepKeys[mid+1:]...),
			sepVals:  append([]int64(nil), n.sepVals[mid+1:]...),
			children: append([]node(nil), n.children[mid+1:]...),
		}
		n.sepKeys = n.sepKeys[:mid:mid]
		n.sepVals = n.sepVals[:mid:mid]
		n.children = n.children[: mid+1 : mid+1]
		return promoK, promoV, ri, true
	}
	panic("btree: unknown node type")
}

// route returns the child index the composite (key,val) belongs to.
func (t *BTree) route(n *inner, key, val int64) int {
	return sort.Search(len(n.sepKeys), func(i int) bool {
		return cmp(key, val, n.sepKeys[i], n.sepVals[i]) < 0
	})
}

// ---------------------------------------------------------------------------
// Queries

// findLeaf descends to the leaf that would contain the composite (key,val).
func (t *BTree) findLeaf(key, val int64) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			n = v.children[t.route(v, key, val)]
		}
	}
}

// AscendRange visits entries with minKey ≤ key ≤ maxKey in order until fn
// returns false.
func (t *BTree) AscendRange(minKey, maxKey int64, fn func(key, val int64) bool) {
	lf := t.findLeaf(minKey, math.MinInt64)
	for lf != nil {
		for i := range lf.keys {
			if lf.keys[i] < minKey {
				continue
			}
			if lf.keys[i] > maxKey {
				return
			}
			if !fn(lf.keys[i], lf.vals[i]) {
				return
			}
		}
		lf = lf.next
	}
}

// ---------------------------------------------------------------------------
// Validation (used by tests)

// Validate checks every structural invariant and returns the first
// violation found, or nil. It is exported for tests and fsck-style tooling.
func (t *BTree) Validate() error {
	count, _, _, err := t.validateNode(t.root, t.root, math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	// The leaf chain must enumerate exactly the entries in order.
	chain := 0
	var pk, pv int64 = math.MinInt64, math.MinInt64
	for lf := t.first; lf != nil; lf = lf.next {
		for i := range lf.keys {
			if cmp(pk, pv, lf.keys[i], lf.vals[i]) > 0 {
				return errors.New("btree: leaf chain out of order")
			}
			pk, pv = lf.keys[i], lf.vals[i]
			chain++
		}
	}
	if chain != t.size {
		return fmt.Errorf("btree: leaf chain has %d entries, size %d", chain, t.size)
	}
	return nil
}

func (t *BTree) validateNode(n, root node, loK, loV, hiK, hiV int64) (count int, minK, minV int64, err error) {
	switch n := n.(type) {
	case *leaf:
		if n != root && len(n.keys) < t.minLeafEntries() {
			return 0, 0, 0, fmt.Errorf("btree: leaf underflow: %d entries", len(n.keys))
		}
		if len(n.keys) > t.maxLeafEntries() {
			return 0, 0, 0, fmt.Errorf("btree: leaf overflow: %d entries", len(n.keys))
		}
		for i := range n.keys {
			if i > 0 && cmp(n.keys[i-1], n.vals[i-1], n.keys[i], n.vals[i]) > 0 {
				return 0, 0, 0, errors.New("btree: leaf entries out of order")
			}
			if cmp(n.keys[i], n.vals[i], loK, loV) < 0 || cmp(n.keys[i], n.vals[i], hiK, hiV) >= 0 {
				return 0, 0, 0, errors.New("btree: leaf entry outside separator range")
			}
		}
		if len(n.keys) == 0 {
			return 0, loK, loV, nil
		}
		return len(n.keys), n.keys[0], n.vals[0], nil

	case *inner:
		if len(n.children) != len(n.sepKeys)+1 {
			return 0, 0, 0, errors.New("btree: children/separator count mismatch")
		}
		if n != root && len(n.children) < t.minChildren() {
			return 0, 0, 0, fmt.Errorf("btree: inner underflow: %d children", len(n.children))
		}
		if len(n.children) > t.order {
			return 0, 0, 0, fmt.Errorf("btree: inner overflow: %d children", len(n.children))
		}
		total := 0
		cloK, cloV := loK, loV
		for i, c := range n.children {
			chiK, chiV := hiK, hiV
			if i < len(n.sepKeys) {
				chiK, chiV = n.sepKeys[i], n.sepVals[i]
			}
			if cmp(cloK, cloV, chiK, chiV) > 0 {
				return 0, 0, 0, errors.New("btree: separators out of order")
			}
			cnt, _, _, err := t.validateNode(c, root, cloK, cloV, chiK, chiV)
			if err != nil {
				return 0, 0, 0, err
			}
			total += cnt
			cloK, cloV = chiK, chiV
		}
		return total, n.sepKeys[0], n.sepVals[0], nil
	}
	return 0, 0, 0, errors.New("btree: unknown node type")
}
