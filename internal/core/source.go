package core

import (
	"time"

	"repro/internal/seqstore"
	"repro/internal/series"
)

// Source is where an engine reads its original (unstandardized) series. An
// engine needs them whole only while it builds — derive reads each row once
// before the index, the row commit once after it — and afterwards only to
// show one (Series), to detect its periods (PeriodsOf, PeriodsOfSet) and to
// save them (Save), so a source may leave them where they are: in the
// caller's slice (SliceSource) or in a file (FileSource), which a boot then
// never copies into the heap.
//
// An engine built from a source owns it: its Close closes the source, and so
// does a constructor that fails. Reads run concurrently, under the engine's
// read lock. Every method that takes a series index i expects 0 ≤ i < Len;
// the engine checks its IDs before it asks.
type Source interface {
	// Len is the number of series; SeqLen the length of the first (every
	// series an engine takes has it).
	Len() int
	SeqLen() int
	// Name returns series i's query term.
	Name(i int) string
	// Values returns series i's values, read-only: the source's own slice
	// where it holds them in memory, otherwise buf filled (a new slice when
	// buf is nil; else buf has length SeqLen).
	Values(i int, buf []float64) ([]float64, error)
	// Series returns series i whole, which the caller may keep but not modify.
	Series(i int) (*series.Series, error)
	// Close releases what the source reads from.
	Close() error
}

// SliceSource is the Source over series the caller holds in memory. The
// engine keeps the slice (not a copy) and, in a DynamicIndex engine, appends
// what Add ingests to it — past its length, so never into the caller's spare
// capacity; Series returns the caller's own *series.Series.
func SliceSource(data []*series.Series) Source {
	return &sliceSource{data: data[:len(data):len(data)]}
}

type sliceSource struct{ data []*series.Series }

func (s *sliceSource) Len() int                                     { return len(s.data) }
func (s *sliceSource) SeqLen() int                                  { return s.data[0].Len() }
func (s *sliceSource) Name(i int) string                            { return s.data[i].Name }
func (s *sliceSource) Values(i int, _ []float64) ([]float64, error) { return s.data[i].Values, nil }
func (s *sliceSource) Series(i int) (*series.Series, error)         { return s.data[i], nil }
func (s *sliceSource) Close() error                                 { return nil }

// FileSource is the Source over a sequence store — a genlog binary
// (querylog.OpenBinary) or a saved engine's raw.bin — whose rows are read on
// demand: names holds one term per row, start is every series' first day.
// The source takes the store over and closes it in its Close.
func FileSource(st seqstore.Store, names []string, start time.Time) Source {
	return &fileSource{st: st, names: names, start: start}
}

type fileSource struct {
	st    seqstore.Store
	names []string
	start time.Time
}

func (f *fileSource) Len() int          { return f.st.Len() }
func (f *fileSource) SeqLen() int       { return f.st.SeqLen() }
func (f *fileSource) Name(i int) string { return f.names[i] }

func (f *fileSource) Values(i int, buf []float64) ([]float64, error) {
	if buf == nil {
		buf = make([]float64, f.st.SeqLen())
	}
	if err := f.st.GetInto(i, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (f *fileSource) Series(i int) (*series.Series, error) {
	values, err := f.Values(i, nil)
	if err != nil {
		return nil, err
	}
	return &series.Series{ID: i, Name: f.names[i], Start: f.start, Values: values}, nil
}

func (f *fileSource) Close() error { return f.st.Close() }
