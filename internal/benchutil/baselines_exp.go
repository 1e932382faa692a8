package benchutil

import (
	"io"
	"math"
	"time"

	"repro/internal/burst"
	"repro/internal/kleinberg"
	"repro/internal/querylog"
	"repro/internal/sbt"
	"repro/internal/stats"
)

// BaselineRow compares one burst-detection approach on the §6 comparator
// axes: wall time per sequence and storage footprint of the retained burst
// information.
type BaselineRow struct {
	Name string
	// TimePerSeq is the mean detection wall time per 1024-day sequence.
	TimePerSeq time.Duration
	// StorageFloats is the mean number of float64-sized values retained
	// per sequence for later burst querying.
	StorageFloats float64
	// Bursts is the mean number of burst regions reported per sequence.
	Bursts float64
}

// RunBaselines reproduces the §6 comparator discussion quantitatively: the
// paper's moving-average detector + triplet compaction versus a
// Kleinberg-style two-state automaton and a Zhu&Shasha-style shifted binary
// tree, over n generated sequences.
func RunBaselines(seed int64, n int) ([]BaselineRow, error) {
	g := querylog.New(seed)
	data := g.Dataset(n)

	ma := BaselineRow{Name: "MA+triplets (paper §6)"}
	kb := BaselineRow{Name: "Kleinberg 2-state"}
	zs := BaselineRow{Name: "Zhu-Shasha SBT"}

	for _, s := range data {
		// Paper detector: MA threshold + triplet compaction. Storage = 3
		// floats per burst triplet.
		start := time.Now()
		det, err := burst.DetectStandardized(s.Values, burst.LongWindow, burst.DefaultCutoff)
		if err != nil {
			return nil, err
		}
		ma.TimePerSeq += time.Since(start)
		ma.StorageFloats += float64(3 * len(det.Bursts))
		ma.Bursts += float64(len(det.Bursts))

		// Kleinberg automaton. Same triplet storage model.
		start = time.Now()
		kdet, err := kleinberg.Detect(s.Values, kleinberg.Options{})
		if err != nil {
			return nil, err
		}
		kb.TimePerSeq += time.Since(start)
		kb.StorageFloats += float64(3 * len(kdet.Bursts))
		kb.Bursts += float64(len(kdet.Bursts))

		// SBT: build + one elastic search over the short/long windows; the
		// structure itself is what must be stored for later querying.
		start = time.Now()
		d, err := sbt.New(s.Values)
		if err != nil {
			return nil, err
		}
		mean := stats.Mean(s.Values)
		_, std := stats.MeanStd(s.Values)
		thresholds := map[int]float64{
			burst.ShortWindow: mean*burst.ShortWindow + 4*std*math.Sqrt(burst.ShortWindow),
			burst.LongWindow:  mean*burst.LongWindow + 4*std*math.Sqrt(burst.LongWindow),
		}
		wins, _, err := d.Search(thresholds)
		if err != nil {
			return nil, err
		}
		zs.TimePerSeq += time.Since(start)
		zs.StorageFloats += float64(d.StorageFloats())
		zs.Bursts += float64(len(wins))
	}
	for _, r := range []*BaselineRow{&ma, &kb, &zs} {
		r.TimePerSeq /= time.Duration(n)
		r.StorageFloats /= float64(n)
		r.Bursts /= float64(n)
	}
	return []BaselineRow{ma, kb, zs}, nil
}

// PrintBaselines renders the comparison table.
func PrintBaselines(w io.Writer, rows []BaselineRow) {
	fprintf(w, "§6 comparators — burst detection baselines (per 1024-day sequence)\n")
	fprintf(w, "  %-24s %12s %14s %10s\n", "method", "time/seq", "storage(f64)", "bursts")
	for _, r := range rows {
		fprintf(w, "  %-24s %12s %14.1f %10.1f\n",
			r.Name, r.TimePerSeq.Round(time.Microsecond), r.StorageFloats, r.Bursts)
	}
}
