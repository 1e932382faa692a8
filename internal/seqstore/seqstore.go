// Package seqstore stores uncompressed time series as fixed-length binary
// records, either on disk or in memory. The similarity-search experiments
// need it to model the paper's setup faithfully: the index holds only
// compressed features, and every candidate that survives pruning costs a
// random read of the full sequence ("the full representation of the
// remaining objects is retrieved from the disk", §4.1; fig. 23 separates
// disk-resident from memory-resident storage).
//
// The disk backend is a flat file: an 8-byte header (magic + record length)
// followed by records of n float64 values each, addressed by sequence ID.
//
// Each backend also owns a sketch of its rows (package sketch): one int8 code
// per value plus the row's quantisation error. Memory extends and cuts it in
// Append and Truncate themselves; Disk, which is as often a file format that
// is written or read once as it is a searched store, brings it up to date
// with the file whenever a search asks for it. A refinement asks it, through
// Reader.Sketch, whether a row can still matter before paying for the read.
//
// Concurrency: both backends support a single writer (Append/Truncate)
// running concurrently with any number of readers (Get/GetInto/Len/Reads).
// Readers never take an exclusive lock — Memory reads run under an RLock
// and Disk reads use positioned ReadAt with pooled buffers — so parallel
// search workers are not serialized on store I/O. Concurrent writers must
// be serialized by the caller (core.Engine holds its write lock across
// mutation).
package seqstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sketch"
)

// Store is random-access storage of equal-length float64 sequences by ID.
type Store interface {
	// Append adds a sequence and returns its ID (IDs are dense from 0).
	Append(values []float64) (int, error)
	// Get reads sequence id into a freshly allocated slice.
	Get(id int) ([]float64, error)
	// GetInto reads sequence id into dst (must have length SeqLen).
	GetInto(id int, dst []float64) error
	// Len returns the number of stored sequences.
	Len() int
	// SeqLen returns the per-sequence length.
	SeqLen() int
	// Truncate discards every sequence with ID >= n, restoring the store
	// to exactly n records. It is the rollback primitive for multi-step
	// inserts (core.Engine.Add appends the row first and truncates it back
	// out if a later step fails). Truncating beyond Len is an error.
	Truncate(n int) error
	// Reads returns the number of Get/GetInto calls served (the random-I/O
	// counter the experiments report); a lookup that fails its range check
	// was not served and is not counted.
	Reads() int64
	// ResetReads zeroes the read counter.
	ResetReads()
	// Close releases resources.
	Close() error
}

// ErrNotFound is returned for out-of-range sequence IDs.
var ErrNotFound = errors.New("seqstore: sequence not found")

// RowReader is an optional zero-copy read fast path: Row returns a
// read-only view of the stored sequence without copying it out. Only
// backends whose rows are stable in memory implement it (Memory rows are
// immutable once appended); the disk backend does not — it must read into a
// buffer anyway. Resolve it through Rows, never by direct type assertion:
// the instrumentation and context wrappers forward Row unconditionally, and
// Rows checks the base backend actually supports it.
type RowReader interface {
	// Row returns the stored sequence as a read-only view. Callers must not
	// modify or retain it past the surrounding read-locked section.
	Row(id int) ([]float64, error)
}

// backend unwraps instrumentation and context wrappers (via Unwrap) down to
// the store that owns the rows.
func backend(s Store) Store {
	for {
		u, ok := s.(interface{ Unwrap() Store })
		if !ok {
			return s
		}
		s = u.Unwrap()
	}
}

// Rows resolves s's zero-copy row reader, unwrapping instrumentation
// wrappers (via Unwrap) to check that the base backend supports row views.
// ok=false means callers should fall back to GetInto.
func Rows(s Store) (RowReader, bool) {
	rr, ok := s.(RowReader)
	if !ok {
		return nil, false
	}
	if _, bok := backend(s).(RowReader); !bok {
		return nil, false
	}
	return rr, true
}

// Reader reads rows of one store for a scan or a refinement, in place where
// the backend has row views and into a caller buffer where it does not.
// Either way a row costs one counted read. It is the one place the
// view-or-copy decision is made; resolve it once per scan with NewReader.
type Reader struct {
	store Store
	rows  RowReader // nil: copy through GetInto
}

// NewReader resolves s's row views once (see Rows).
func NewReader(s Store) Reader {
	rows, _ := Rows(s)
	return Reader{store: s, rows: rows}
}

// Sketch returns a snapshot of the sketch the store's backend keeps of its
// rows (see package sketch), found through the same Unwrap chain as the row
// views. Both backends own one and change it only under the lock that
// guards their rows, so the snapshot covers exactly the rows stored when it
// was taken; a store of any other type yields the empty sketch, which rejects
// nothing.
func (r Reader) Sketch() sketch.Rows {
	if b, ok := backend(r.store).(interface{ Sketch() sketch.Rows }); ok {
		return b.Sketch()
	}
	return sketch.Rows{}
}

// InPlace reports whether Row hands back stored rows, in which case it
// never touches its buffer argument and callers need not allocate one.
func (r Reader) InPlace() bool { return r.rows != nil }

// NewBuffer returns a buffer for Row to fill: nil when InPlace, a fresh one
// of the store's sequence length otherwise.
func (r Reader) NewBuffer() []float64 {
	if r.rows != nil {
		return nil
	}
	return make([]float64, r.store.SeqLen())
}

// Row returns sequence id: the stored row itself when InPlace — read-only,
// and not to be retained past the surrounding read-locked section — and
// otherwise buf (length SeqLen), filled.
func (r Reader) Row(id int, buf []float64) ([]float64, error) {
	if r.rows != nil {
		return r.rows.Row(id)
	}
	if err := r.store.GetInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// errNoRows is what a wrapper's Row returns over a backend without row
// views; Rows reports false for such a store, so callers never see it.
var errNoRows = errors.New("seqstore: backend does not expose rows")

// ErrBadLength is returned when a sequence's length does not match the store.
var ErrBadLength = errors.New("seqstore: sequence length mismatch")

// ErrBadTruncate is returned when Truncate is asked to grow the store or
// shrink it below zero records.
var ErrBadTruncate = errors.New("seqstore: truncate out of range")

// ErrReadOnly is returned by Append and Truncate on a store Open opened.
var ErrReadOnly = errors.New("seqstore: store opened read-only")

// ---------------------------------------------------------------------------
// In-memory backend

// Memory is the in-memory Store backend.
type Memory struct {
	mu     sync.RWMutex
	seqLen int
	data   [][]float64
	sketch sketch.Rows // one entry per row of data, under mu
	reads  atomic.Int64
}

// NewMemory creates an in-memory store for sequences of length seqLen.
func NewMemory(seqLen int) (*Memory, error) {
	if seqLen <= 0 {
		return nil, errors.New("seqstore: sequence length must be positive")
	}
	return &Memory{seqLen: seqLen, sketch: sketch.NewRows(seqLen)}, nil
}

// Append implements Store.
func (m *Memory) Append(values []float64) (int, error) {
	if len(values) != m.seqLen {
		return 0, ErrBadLength
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data, cp)
	m.sketch.Append(cp)
	return len(m.data) - 1, nil
}

// Sketch returns a snapshot of the rows' sketch.
func (m *Memory) Sketch() sketch.Rows {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sketch
}

// Get implements Store.
func (m *Memory) Get(id int) ([]float64, error) {
	dst := make([]float64, m.seqLen)
	if err := m.GetInto(id, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Row implements RowReader: the returned slice is the stored row itself,
// valid indefinitely for reading (rows are copied on Append and never
// mutated; Truncate drops references but cannot recycle the backing array).
func (m *Memory) Row(id int) ([]float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id < 0 || id >= len(m.data) {
		return nil, ErrNotFound
	}
	m.reads.Add(1)
	return m.data[id], nil
}

// GetInto implements Store.
func (m *Memory) GetInto(id int, dst []float64) error {
	if len(dst) != m.seqLen {
		return ErrBadLength
	}
	m.mu.RLock()
	if id < 0 || id >= len(m.data) {
		m.mu.RUnlock()
		return ErrNotFound
	}
	src := m.data[id]
	m.mu.RUnlock()
	m.reads.Add(1)
	// src is immutable once appended (Append stores a private copy), so the
	// copy may run outside the lock.
	copy(dst, src)
	return nil
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// SeqLen implements Store.
func (m *Memory) SeqLen() int { return m.seqLen }

// Grow makes room for rows more rows and their sketch, for a caller that
// knows how many it is about to append.
func (m *Memory) Grow(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = slices.Grow(m.data, rows)
	m.sketch.Grow(rows)
}

// Truncate implements Store.
func (m *Memory) Truncate(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 || n > len(m.data) {
		return ErrBadTruncate
	}
	for i := n; i < len(m.data); i++ {
		m.data[i] = nil
	}
	m.data = m.data[:n]
	m.sketch.Truncate(n)
	return nil
}

// Reads implements Store.
func (m *Memory) Reads() int64 { return m.reads.Load() }

// ResetReads implements Store.
func (m *Memory) ResetReads() { m.reads.Store(0) }

// Close implements Store.
func (m *Memory) Close() error { return nil }

// ---------------------------------------------------------------------------
// Disk backend

const (
	magic      = uint32(0x53514c47) // "SQLG"
	headerSize = 8                  // magic + uint32 record length
)

// Disk is the file-backed Store backend. Reads are positioned (ReadAt) on
// pooled scratch buffers and never block each other; the record count is
// published atomically only after the record's bytes are fully written, so
// a concurrent reader can never observe a half-written row.
type Disk struct {
	mu       sync.Mutex // serializes Append/Truncate
	f        *os.File
	readOnly bool // opened by Open: Append and Truncate refuse
	seqLen   int
	// sketch covers rows [0, sketch.Len()) — a prefix of the file that
	// Sketch extends to every published row; under mu.
	sketch sketch.Rows
	count  atomic.Int64
	reads  atomic.Int64
	bufs   sync.Pool // *[]byte record scratch buffers
}

func newDisk(f *os.File, seqLen, count int) *Disk {
	d := &Disk{f: f, seqLen: seqLen, sketch: sketch.NewRows(seqLen)}
	d.count.Store(int64(count))
	recBytes := 8 * seqLen
	d.bufs.New = func() any {
		b := make([]byte, recBytes)
		return &b
	}
	return d
}

// Create creates (or truncates) a disk store at path for sequences of
// length seqLen.
func Create(path string, seqLen int) (*Disk, error) {
	if seqLen <= 0 {
		return nil, errors.New("seqstore: sequence length must be positive")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seqstore: create: %w", err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(seqLen))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqstore: write header: %w", err)
	}
	return newDisk(f, seqLen, 0), nil
}

// Open opens an existing disk store for reading: the file is opened
// O_RDONLY, so a world-readable file serves a process that may not write it,
// and Append and Truncate return ErrReadOnly. A store is written only through
// the Disk that Create returned.
func Open(path string) (*Disk, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seqstore: open: %w", err)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("seqstore: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
		f.Close()
		return nil, errors.New("seqstore: bad magic")
	}
	seqLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if seqLen <= 0 {
		f.Close()
		return nil, errors.New("seqstore: corrupt header")
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	recBytes := int64(8 * seqLen)
	body := fi.Size() - headerSize
	if body%recBytes != 0 {
		f.Close()
		return nil, errors.New("seqstore: truncated record data")
	}
	d := newDisk(f, seqLen, int(body/recBytes))
	d.readOnly = true
	return d, nil
}

// Sketch returns a snapshot of the rows' sketch, first sketching, in one
// sequential pass over the file, every row published since the last call —
// all of them the first time after Open, the rows appended since otherwise.
// The sketch is derived state and cheap next to the read itself, so it is
// recomputed rather than persisted (no second file to checksum or to fall
// out of step with the rows), and on demand, so files that are only written
// or only read through never pay for it. A read error leaves the sketch
// short; rows it does not cover are simply never rejected.
func (d *Disk) Sketch() sketch.Rows {
	d.mu.Lock()
	defer d.mu.Unlock()
	from, to := d.sketch.Len(), d.Len()
	if from == to {
		return d.sketch
	}
	recBytes := int64(8 * d.seqLen)
	r := bufio.NewReaderSize(io.NewSectionReader(d.f, headerSize+int64(from)*recBytes, int64(to-from)*recBytes), 1<<20)
	buf := make([]byte, recBytes)
	row := make([]float64, d.seqLen)
	d.sketch.Grow(to - from)
	for id := from; id < to; id++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			break
		}
		decodeRow(row, buf)
		d.sketch.Append(row)
	}
	return d.sketch
}

func decodeRow(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// Append implements Store.
func (d *Disk) Append(values []float64) (int, error) {
	if d.readOnly {
		return 0, ErrReadOnly
	}
	if len(values) != d.seqLen {
		return 0, ErrBadLength
	}
	bp := d.bufs.Get().(*[]byte)
	buf := *bp
	for i, v := range values {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := int(d.count.Load())
	off := int64(headerSize) + int64(id)*int64(len(buf))
	if _, err := d.f.WriteAt(buf, off); err != nil {
		d.bufs.Put(bp)
		return 0, fmt.Errorf("seqstore: append: %w", err)
	}
	d.bufs.Put(bp)
	// Publish the row only after its bytes are durably in the file so a
	// concurrent reader racing on id never sees a partial record.
	d.count.Store(int64(id) + 1)
	return id, nil
}

// Get implements Store.
func (d *Disk) Get(id int) ([]float64, error) {
	dst := make([]float64, d.seqLen)
	if err := d.GetInto(id, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// GetInto implements Store.
func (d *Disk) GetInto(id int, dst []float64) error {
	if len(dst) != d.seqLen {
		return ErrBadLength
	}
	if id < 0 || id >= int(d.count.Load()) {
		return ErrNotFound
	}
	d.reads.Add(1)
	bp := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(bp)
	buf := *bp
	off := int64(headerSize) + int64(id)*int64(len(buf))
	if _, err := d.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("seqstore: read record %d: %w", id, err)
	}
	decodeRow(dst, buf)
	return nil
}

// Len implements Store.
func (d *Disk) Len() int { return int(d.count.Load()) }

// SeqLen implements Store.
func (d *Disk) SeqLen() int { return d.seqLen }

// Truncate implements Store.
func (d *Disk) Truncate(n int) error {
	if d.readOnly {
		return ErrReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := int(d.count.Load())
	if n < 0 || n > cur {
		return ErrBadTruncate
	}
	if n == cur {
		return nil
	}
	// Unpublish the rows before shrinking the file so no reader holds an
	// ID that points past EOF mid-truncate.
	d.count.Store(int64(n))
	if n < d.sketch.Len() {
		d.sketch.Truncate(n)
	}
	size := int64(headerSize) + int64(n)*int64(8*d.seqLen)
	if err := d.f.Truncate(size); err != nil {
		return fmt.Errorf("seqstore: truncate: %w", err)
	}
	return nil
}

// Reads implements Store.
func (d *Disk) Reads() int64 { return d.reads.Load() }

// ResetReads implements Store.
func (d *Disk) ResetReads() { d.reads.Store(0) }

// Close implements Store.
func (d *Disk) Close() error { return d.f.Close() }

// Sync flushes buffered writes to stable storage.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

var (
	_ Store = (*Memory)(nil)
	_ Store = (*Disk)(nil)
)
