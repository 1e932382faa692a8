package vptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/spectral"
)

// DiskFeatures stores compressed representations in a flat file and decodes
// them on demand — the "index on disk" configuration of fig. 23, where every
// bound computation pays a feature read. Record offsets are kept in memory
// (they are tiny: 8 bytes per object).
//
// Record layout (little endian):
//
//	uint8   method
//	uint32  N
//	uint16  k (number of kept coefficients)
//	float64 minPower
//	float64 err
//	k × { uint16 position, float64 re, float64 im }
//
// The offset/size tables are immutable after WriteFeatures and every read
// is a positioned ReadAt into a per-call buffer, so Feature never takes a
// lock: parallel search workers fetch features without serializing.
type DiskFeatures struct {
	f       *os.File
	offsets []int64
	sizes   []int32
	reads   atomic.Int64
}

const featMagic = uint32(0x53514654) // "SQFT"

// ErrCorrupt is wrapped by the error ReadFeatures returns for a file that
// fails validation.
var ErrCorrupt = errors.New("vptree: corrupt feature file")

// WriteFeatures writes the feature table to path and returns the handle.
func WriteFeatures(path string, feats []*spectral.Compressed) (*DiskFeatures, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vptree: create features: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], featMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(feats)))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	d := &DiskFeatures{f: f, offsets: make([]int64, len(feats)), sizes: make([]int32, len(feats))}
	off := int64(len(hdr))
	for i, c := range feats {
		rec := encodeFeature(c)
		if _, err := f.WriteAt(rec, off); err != nil {
			f.Close()
			return nil, fmt.Errorf("vptree: write feature %d: %w", i, err)
		}
		d.offsets[i] = off
		d.sizes[i] = int32(len(rec))
		off += int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// ReadFeatures reads back, whole and in order, the feature table
// WriteFeatures wrote to path. A file that is not one — a bad header, a record
// that does not parse or names a coefficient past its spectrum, bytes past the
// last record — is refused with an error wrapping ErrCorrupt.
func ReadFeatures(path string) ([]*spectral.Compressed, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("vptree: read features: %w", err)
	}
	if len(b) < 8 || binary.LittleEndian.Uint32(b) != featMagic {
		return nil, fmt.Errorf("vptree: %s is not a feature file: %w", path, ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	feats := make([]*spectral.Compressed, 0, min(n, len(b)/23))
	for b = b[8:]; len(feats) < n; {
		size := 23
		if len(b) >= size {
			size += 18 * int(binary.LittleEndian.Uint16(b[5:]))
		}
		if len(b) < size {
			return nil, fmt.Errorf("vptree: feature %d of %d is cut short: %w", len(feats), n, ErrCorrupt)
		}
		c, err := decodeFeature(b[:size])
		if err == nil {
			err = checkFeature(c)
		}
		if err != nil {
			return nil, fmt.Errorf("vptree: feature %d: %v: %w", len(feats), err, ErrCorrupt)
		}
		feats, b = append(feats, c), b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("vptree: %d bytes after the last feature: %w", len(b), ErrCorrupt)
	}
	return feats, nil
}

// checkFeature refuses a decoded feature no spectrum has: one of length < 1,
// or with a coefficient past the spectrum's last bin.
func checkFeature(c *spectral.Compressed) error {
	if c.N < 1 {
		return fmt.Errorf("sequence length %d", c.N)
	}
	for _, p := range c.Positions {
		if p > c.N/2 {
			return fmt.Errorf("coefficient %d of a length-%d spectrum", p, c.N)
		}
	}
	return nil
}

func encodeFeature(c *spectral.Compressed) []byte {
	k := len(c.Positions)
	rec := make([]byte, 1+4+2+8+8+k*(2+16))
	rec[0] = byte(c.Method)
	binary.LittleEndian.PutUint32(rec[1:], uint32(c.N))
	binary.LittleEndian.PutUint16(rec[5:], uint16(k))
	binary.LittleEndian.PutUint64(rec[7:], math.Float64bits(c.MinPower))
	binary.LittleEndian.PutUint64(rec[15:], math.Float64bits(c.Err))
	p := 23
	for i := 0; i < k; i++ {
		binary.LittleEndian.PutUint16(rec[p:], uint16(c.Positions[i]))
		binary.LittleEndian.PutUint64(rec[p+2:], math.Float64bits(real(c.Coeffs[i])))
		binary.LittleEndian.PutUint64(rec[p+10:], math.Float64bits(imag(c.Coeffs[i])))
		p += 18
	}
	return rec
}

func decodeFeature(rec []byte) (*spectral.Compressed, error) {
	if len(rec) < 23 {
		return nil, errors.New("vptree: short feature record")
	}
	c := &spectral.Compressed{
		Method:   spectral.Method(rec[0]),
		N:        int(binary.LittleEndian.Uint32(rec[1:])),
		MinPower: math.Float64frombits(binary.LittleEndian.Uint64(rec[7:])),
		Err:      math.Float64frombits(binary.LittleEndian.Uint64(rec[15:])),
	}
	k := int(binary.LittleEndian.Uint16(rec[5:]))
	if len(rec) != 23+k*18 {
		return nil, errors.New("vptree: feature record size mismatch")
	}
	c.Positions = make([]int, k)
	c.Coeffs = make([]complex128, k)
	p := 23
	for i := 0; i < k; i++ {
		c.Positions[i] = int(binary.LittleEndian.Uint16(rec[p:]))
		re := math.Float64frombits(binary.LittleEndian.Uint64(rec[p+2:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(rec[p+10:]))
		c.Coeffs[i] = complex(re, im)
		p += 18
	}
	return c, nil
}

// Feature implements FeatureSource.
func (d *DiskFeatures) Feature(ref int) (*spectral.Compressed, error) {
	d.reads.Add(1)
	if ref < 0 || ref >= len(d.offsets) {
		return nil, fmt.Errorf("vptree: feature ref %d out of range", ref)
	}
	rec := make([]byte, d.sizes[ref])
	if _, err := d.f.ReadAt(rec, d.offsets[ref]); err != nil {
		return nil, fmt.Errorf("vptree: read feature %d: %w", ref, err)
	}
	return decodeFeature(rec)
}

// Reads returns the number of feature reads served.
func (d *DiskFeatures) Reads() int64 { return d.reads.Load() }

// Close releases the underlying file.
func (d *DiskFeatures) Close() error { return d.f.Close() }

var _ FeatureSource = (*DiskFeatures)(nil)
