package seqstore

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestWithContextPassthroughForBackground(t *testing.T) {
	m, _ := NewMemory(4)
	if s := WithContext(context.Background(), m); s != Store(m) {
		t.Fatal("Background context should not wrap the store")
	}
	if s := WithContext(nil, m); s != Store(m) { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("nil context should not wrap the store")
	}
}

func TestWithContextFailsReadsAfterCancel(t *testing.T) {
	m, _ := NewMemory(2)
	if _, err := m.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := WithContext(ctx, m)

	if _, err := s.Get(0); err != nil {
		t.Fatalf("Get before cancel: %v", err)
	}
	before := m.Reads()
	cancel()
	if _, err := s.Get(0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get after cancel = %v, want Canceled", err)
	}
	dst := make([]float64, 2)
	if err := s.GetInto(0, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetInto after cancel = %v, want Canceled", err)
	}
	if m.Reads() != before {
		t.Fatal("cancelled reads must not reach the underlying store")
	}
	if s.Len() != 1 || s.SeqLen() != 2 {
		t.Fatal("metadata methods must pass through")
	}
}

// The engine hands a search WithContext(ctx, Instrument(backend)); the
// zero-copy path must resolve through both wrappers over Memory, count like
// GetInto, and stay off over Disk.
func TestRowsResolvesThroughWrappers(t *testing.T) {
	mem, _ := NewMemory(2)
	if _, err := mem.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := WithContext(ctx, Instrument(mem, reg))
	rr, ok := Rows(s)
	if !ok {
		t.Fatal("Rows must resolve through ctx + Instrument over Memory")
	}
	row, err := rr.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := mem.Row(0)
	if &row[0] != &stored[0] {
		t.Fatal("Row must return the stored row in place")
	}
	if got := reg.Counter("seqstore_reads_total", "").Value(); got != 1 {
		t.Errorf("seqstore_reads_total = %d, want 1", got)
	}
	if got := reg.Counter("seqstore_read_bytes_total", "").Value(); got != 16 {
		t.Errorf("seqstore_read_bytes_total = %d, want 16", got)
	}

	before := mem.Reads()
	cancel()
	if _, err := rr.Row(0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Row after cancel = %v, want Canceled", err)
	}
	if mem.Reads() != before {
		t.Fatal("a cancelled Row must not reach the underlying store")
	}

	disk, err := Create(filepath.Join(t.TempDir(), "seq.bin"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	if _, ok := Rows(WithContext(live, Instrument(disk, reg))); ok {
		t.Fatal("Rows must stay false over Disk")
	}
}

// Reader is the one view-or-copy decision: over Memory (through both
// wrappers) it hands back the stored row and never touches the buffer; over
// Disk it fills the buffer; either way a row is one counted read, and a
// failed lookup is none.
func TestReaderViewsMemoryAndCopiesDisk(t *testing.T) {
	mem, _ := NewMemory(2)
	disk, err := Create(filepath.Join(t.TempDir(), "seq.bin"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, s := range []Store{mem, disk} {
		if _, err := s.Append([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := obs.NewRegistry()
	reads := reg.Counter("seqstore_reads_total", "")
	r := NewReader(WithContext(ctx, Instrument(mem, reg)))
	if !r.InPlace() || r.NewBuffer() != nil {
		t.Fatal("Reader over Memory must read in place and need no buffer")
	}
	buf := []float64{-1, -1}
	row, err := r.Row(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if stored, _ := mem.Row(0); &row[0] != &stored[0] {
		t.Error("Reader over Memory must return the stored row itself")
	}
	if buf[0] != -1 || buf[1] != -1 {
		t.Error("Reader over Memory must leave the buffer alone")
	}
	if row, err = r.Row(0, nil); err != nil || row[1] != 2 {
		t.Errorf("in-place read without a buffer: %v, %v", row, err)
	}
	if _, err := r.Row(7, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range row = %v, want ErrNotFound", err)
	}
	if got := reads.Value(); got != 2 {
		t.Errorf("memory: seqstore_reads_total = %d after two served rows and one miss, want 2", got)
	}

	reg = obs.NewRegistry()
	reads = reg.Counter("seqstore_reads_total", "")
	r = NewReader(WithContext(ctx, Instrument(disk, reg)))
	if r.InPlace() || len(r.NewBuffer()) != 2 {
		t.Fatal("Reader over Disk must copy, into a buffer of the sequence length")
	}
	row, err = r.Row(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &row[0] != &buf[0] || buf[0] != 1 || buf[1] != 2 {
		t.Errorf("Reader over Disk must fill and return the buffer, got %v (buf %v)", row, buf)
	}
	if _, err := r.Row(7, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range row = %v, want ErrNotFound", err)
	}
	if got := reads.Value(); got != 1 {
		t.Errorf("disk: seqstore_reads_total = %d after one served row and one miss, want 1", got)
	}
	cancel()
	if _, err := r.Row(0, buf); !errors.Is(err, context.Canceled) {
		t.Errorf("Row after cancel = %v, want Canceled", err)
	}
}
