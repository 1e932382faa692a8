package seqstore

import "repro/internal/obs"

// instrumented mirrors every Store operation into obs counters while
// delegating to the wrapped backend. Counts are in addition to the
// backend's own Reads() accounting (which the experiments reset per run;
// the obs counters are cumulative process-lifetime totals).
type instrumented struct {
	Store
	reads      *obs.Counter
	readBytes  *obs.Counter
	appends    *obs.Counter
	writeBytes *obs.Counter
	errors     *obs.Counter
}

// Instrument wraps a store so its traffic shows up in reg under
// seqstore_reads_total, seqstore_read_bytes_total, seqstore_appends_total,
// seqstore_write_bytes_total and seqstore_errors_total. A nil registry
// returns the store unchanged.
func Instrument(s Store, reg *obs.Registry) Store {
	if reg == nil {
		return s
	}
	return &instrumented{
		Store:      s,
		reads:      reg.Counter("seqstore_reads_total", "sequence records fetched from the store"),
		readBytes:  reg.Counter("seqstore_read_bytes_total", "bytes of sequence data read (8 bytes per value)"),
		appends:    reg.Counter("seqstore_appends_total", "sequence records appended to the store"),
		writeBytes: reg.Counter("seqstore_write_bytes_total", "bytes of sequence data written (8 bytes per value)"),
		errors:     reg.Counter("seqstore_errors_total", "store operations that returned an error"),
	}
}

func (s *instrumented) recordBytes() int64 { return 8 * int64(s.Store.SeqLen()) }

// Append implements Store.
func (s *instrumented) Append(values []float64) (int, error) {
	id, err := s.Store.Append(values)
	if err == nil {
		s.appends.Inc()
		s.writeBytes.Add(s.recordBytes())
	} else {
		s.errors.Inc()
	}
	return id, err
}

// Get implements Store.
func (s *instrumented) Get(id int) ([]float64, error) {
	v, err := s.Store.Get(id)
	if err == nil {
		s.reads.Inc()
		s.readBytes.Add(s.recordBytes())
	} else {
		s.errors.Inc()
	}
	return v, err
}

// GetInto implements Store.
func (s *instrumented) GetInto(id int, dst []float64) error {
	err := s.Store.GetInto(id, dst)
	if err == nil {
		s.reads.Inc()
		s.readBytes.Add(s.recordBytes())
	} else {
		s.errors.Inc()
	}
	return err
}

// Truncate implements Store.
func (s *instrumented) Truncate(n int) error {
	err := s.Store.Truncate(n)
	if err != nil {
		s.errors.Inc()
	}
	return err
}

// Row implements RowReader by delegating to the backend, mirroring the
// read into the same counters as Get/GetInto. Callers reach it through
// Rows, which verifies the backend supports row views first.
func (s *instrumented) Row(id int) ([]float64, error) {
	rr, ok := s.Store.(RowReader)
	if !ok {
		s.errors.Inc()
		return nil, errNoRows
	}
	row, err := rr.Row(id)
	if err == nil {
		s.reads.Inc()
		s.readBytes.Add(s.recordBytes())
	} else {
		s.errors.Inc()
	}
	return row, err
}

// Unwrap returns the underlying backend (for callers needing a concrete
// *Disk, e.g. to Sync).
func (s *instrumented) Unwrap() Store { return s.Store }

var _ Store = (*instrumented)(nil)
