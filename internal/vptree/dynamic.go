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
// Insert descends by exact distance to each vantage point and appends to the
// reached leaf; a leaf that overflows past 2×LeafSize is rebuilt into a
// subtree from its retained spectra. It makes the same change to the pointer
// tree and to the flat index the searches walk (inplace.go), in O(depth),
// without re-deriving the flat index. It writes what a search reads, so it
// needs whatever lock keeps searches out (the engine's write lock).
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
// — happens before the first write to the pointer tree, the feature table or
// the flat index, so a failed insert leaves all three as they were.
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

	// Route: the pointer nodes from the root to the leaf, and their flat twins.
	nd, ni := t.root, int32(0)
	var pathBuf [48]int32 // deeper trees spill to the heap
	path := pathBuf[:0]
	for nd.leaf == nil {
		vpSpec, ok := t.specByID[nd.vpID]
		if !ok {
			return errors.New("vptree: missing vantage-point spectrum")
		}
		d, err := spectral.Distance(vpSpec, spec)
		if err != nil {
			return err
		}
		path = append(path, ni)
		fn := &t.flat.nodes[ni]
		if d <= nd.median {
			nd, ni = nd.left, fn.left
		} else {
			nd, ni = nd.right, fn.right
		}
	}

	// A leaf this entry overflows becomes a subtree, built aside.
	e := entry{id: id, ref: len(t.features)}
	var sub *node
	if len(nd.leaf)+1 > 2*t.opts.LeafSize {
		var err error
		if sub, err = t.rebuildLeaf(append(nd.leaf[:len(nd.leaf):len(nd.leaf)], e), spec); err != nil {
			return err
		}
	}
	slot, err := t.flat.appendSlot(e.ref, c)
	if err != nil {
		return err
	}

	// Nothing below fails.
	t.features = append(t.features, c)
	t.flat.src = t.features
	t.specByID[id] = spec
	t.n++
	if sub == nil {
		nd.leaf = append(nd.leaf, e)
		t.flat.appendLeaf(ni, id, slot, 2*t.opts.LeafSize)
	} else {
		t.flat.splice(ni, nd, sub, path)
		*nd = *sub
	}
	t.repackIfStale()
	return nil
}

// rebuildLeaf builds the subtree that replaces an overflowing leaf, with the
// standard construction algorithm, from the leaf's entries — the last of
// which is the one being inserted, whose spectrum is not retained yet.
// Existing feature refs are reused — the entries' compressed forms do not
// change, only the routing structure above them — so a rebuild never grows
// the feature table, and it writes nothing the tree holds. Rebuilds run
// serially: they sit under the engine's write lock and leaves are small.
func (t *Tree) rebuildLeaf(leaf []entry, newSpec *spectral.HalfSpectrum) (*node, error) {
	specs := make([]*spectral.HalfSpectrum, len(leaf))
	ids := make([]int, len(leaf))
	refs := make([]int, len(leaf))
	idx := make([]int, len(leaf))
	for i, e := range leaf {
		s, ok := t.specByID[e.id]
		if !ok {
			if i != len(leaf)-1 {
				return nil, errors.New("vptree: missing spectrum for leaf rebuild")
			}
			s = newSpec
		}
		specs[i], ids[i], refs[i], idx[i] = s, e.id, e.ref, i
	}
	// The salt is the feature count with the new entry in.
	b := &builder{t: t, specs: specs, ids: ids, refs: refs, salt: uint64(leaf[len(leaf)-1].ref + 1)}
	return b.build(idx, rootPath, newRand())
}
