package vptree

import (
	"errors"

	"repro/internal/spectral"
)

// Dynamic maintenance (§4.1 notes that "accommodation of insertion and
// deletion procedures can be implemented on top of the proposed search
// mechanisms", citing the dynamic vp-tree of Fu et al.). A dynamic tree
// retains the uncompressed spectra of its objects so that inserts can
// route and split with exact distances, exactly like construction does;
// static trees stay compact and reject updates.
//
// Insert descends the flat nodes by exact distance to each vantage point and
// appends to the reached leaf; a leaf that overflows past 2×LeafSize is
// rebuilt into a subtree from its retained spectra (inplace.go). Either
// change is made to the flat index where it stands, in O(depth). It writes
// what a search reads, so it needs whatever lock keeps searches out (the
// engine's write lock).
//
// Deletion is not provided: nothing served removes a series, so every object
// the tree names — vantage points included — is live. It would come back
// behind a served Engine.Delete, with its own route, a write-ahead log and
// the brute-force oracle every configuration answers to.

// ErrStatic is returned when updating a tree built without Dynamic mode.
var ErrStatic = errors.New("vptree: tree was built without Options.Dynamic")

// ErrDuplicateID is returned when inserting an ID the tree already holds.
var ErrDuplicateID = errors.New("vptree: duplicate sequence ID")

// Compress returns the feature a tree built with opts stores for spec: the
// fixed-Budget form, or the §8 variable-size one when EnergyFraction is set.
// It reads nothing of any tree, so a writer can derive the feature before it
// takes the lock it inserts under (InsertCompressed).
func Compress(spec *spectral.HalfSpectrum, opts Options) (*spectral.Compressed, error) {
	opts.fill()
	return compressOne(spec, opts)
}

// Compress returns the feature the tree stores for spec, in the
// representation it was built with (a loaded tree: the one it was saved with).
func (t *Tree) Compress(spec *spectral.HalfSpectrum) (*spectral.Compressed, error) {
	return compressOne(spec, t.opts)
}

// Insert adds a new object to a dynamic tree. The spectrum must have the
// tree's sequence length; id must address the object in the seqstore used
// at query time. An Insert that fails leaves the tree as it was.
func (t *Tree) Insert(spec *spectral.HalfSpectrum, id int) error {
	c, err := t.Compress(spec)
	if err != nil {
		return err
	}
	return t.InsertCompressed(spec, c, id)
}

// InsertCompressed is Insert for a caller that already holds spec's feature
// (Compress under the options the tree was built with). Everything that can
// fail — routing, the rebuild of a leaf that overflows, the arena's check of c
// — happens before the first write to the feature table or the flat index,
// so a failed insert leaves both as they were.
func (t *Tree) InsertCompressed(spec *spectral.HalfSpectrum, c *spectral.Compressed, id int) error {
	if !t.opts.Dynamic {
		return ErrStatic
	}
	if spec.N != t.seqLen || c == nil || c.N != t.seqLen {
		return spectral.ErrMismatch
	}
	if _, dup := t.specByID[id]; dup {
		return ErrDuplicateID
	}

	// Route: the nodes from the root to the leaf.
	f := t.flat
	ni := int32(0)
	var pathBuf [48]int32 // deeper trees spill to the heap
	path := pathBuf[:0]
	for fn := &f.nodes[ni]; fn.leafLo < 0; fn = &f.nodes[ni] {
		vpSpec, ok := t.specByID[fn.vpID]
		if !ok {
			return errors.New("vptree: missing vantage-point spectrum")
		}
		d, err := spectral.Distance(vpSpec, spec)
		if err != nil {
			return err
		}
		path = append(path, ni)
		if d <= fn.median {
			ni = fn.left
		} else {
			ni = fn.right
		}
	}

	// A leaf this entry overflows becomes a subtree, built aside.
	var sub []step
	if fn := &f.nodes[ni]; int(fn.leafHi-fn.leafLo)+1 > 2*t.opts.LeafSize {
		var err error
		if sub, err = t.rebuildLeaf(fn, spec, id); err != nil {
			return err
		}
	}
	slot, err := f.appendSlot(len(t.features), c)
	if err != nil {
		return err
	}

	// Nothing below fails.
	t.features = append(t.features, c)
	t.specByID[id] = spec
	if sub == nil {
		f.appendLeaf(ni, id, slot, 2*t.opts.LeafSize)
	} else {
		f.splice(ni, sub, path)
	}
	t.repackIfStale()
	return nil
}

// rebuildLeaf builds the subtree that replaces the overflowing leaf fn, with
// the standard construction algorithm, from its entries and the one being
// inserted, whose spectrum is not retained yet and whose slot is the next.
// The walk names every entry by its slot — the entries' compressed forms do
// not change, only the routing structure above them — so a rebuild never
// moves a feature, and it writes nothing the tree holds. Rebuilds run
// serially: they sit under the engine's write lock and leaves are small.
func (t *Tree) rebuildLeaf(fn *flatNode, newSpec *spectral.HalfSpectrum, newID int) ([]step, error) {
	f := t.flat
	m := int(fn.leafHi-fn.leafLo) + 1
	specs := make([]*spectral.HalfSpectrum, m)
	ids := make([]int, m)
	slots := make([]int, m)
	idx := make([]int, m)
	for i := range m - 1 {
		id := f.leafIDs[int(fn.leafLo)+i]
		s, ok := t.specByID[id]
		if !ok {
			return nil, errors.New("vptree: missing spectrum for leaf rebuild")
		}
		specs[i], ids[i], slots[i], idx[i] = s, id, int(f.leafSlots[int(fn.leafLo)+i]), i
	}
	specs[m-1], ids[m-1], slots[m-1], idx[m-1] = newSpec, newID, len(f.slotRef), m-1
	// The salt is the feature count with the new entry in.
	b := &builder{t: t, specs: specs, ids: ids, refs: slots, salt: uint64(len(t.features) + 1)}
	return b.build(nil, idx, rootPath, newRand())
}
