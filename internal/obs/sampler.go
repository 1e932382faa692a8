package obs

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"
)

// TailSampler decides at trace *end* — with the full duration and outcome
// in hand — whether a finished trace is retained. The policy:
//
//   - every trace at or over the slow-query threshold is kept ("slow");
//     the slow log's threshold IS the sampler's always-keep signal, so
//     there is one latency knob, not two;
//   - every trace whose outcome records an error, abort, shed, truncation
//     or HTTP status >= 400 is kept ("outcome");
//   - remaining healthy traces are kept with probability Fraction,
//     decided deterministically from the trace ID so every process
//     observing the same distributed trace makes the same call.
//
// An explained trace (one with a report attached, see Trace.Attach) is
// never offered to the sampler: Trace.Finish keeps it ("explain"), since
// /debug/explain reads reports from the kept traces.
//
// Keep/drop counts are exposed for /debug/vars and metrics. All methods
// are nil-safe; a nil sampler keeps everything.
type TailSampler struct {
	fraction atomic.Uint64 // math.Float64bits of the healthy-keep fraction
	slow     *SlowLog

	keptSlow    atomic.Int64
	keptOutcome atomic.Int64
	keptSampled atomic.Int64
	sampledOut  atomic.Int64
}

// Keep reasons recorded on retained TraceRecords.
const (
	KeepSlow    = "slow"    // duration >= slow-log threshold
	KeepOutcome = "outcome" // errored / aborted / shed / truncated
	KeepExplain = "explain" // an explain report is attached
	KeepSampled = "sampled" // healthy, within the probabilistic fraction
)

// NewTailSampler creates a sampler keeping the given fraction of healthy
// traces (clamped to [0,1]). slow provides the always-keep latency
// threshold; nil (or a disabled log) means no latency-based retention.
func NewTailSampler(fraction float64, slow *SlowLog) *TailSampler {
	s := &TailSampler{slow: slow}
	s.SetFraction(fraction)
	return s
}

// SetFraction updates the healthy-trace keep fraction (clamped to [0,1]).
func (s *TailSampler) SetFraction(f float64) {
	if s == nil {
		return
	}
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	s.fraction.Store(math.Float64bits(f))
}

// Fraction returns the healthy-trace keep fraction (1 on a nil sampler:
// no sampler means keep-all).
func (s *TailSampler) Fraction() float64 {
	if s == nil {
		return 1
	}
	return math.Float64frombits(s.fraction.Load())
}

// Decide returns whether a finished trace is kept and why (KeepSlow,
// KeepOutcome or KeepSampled; reason is "" on drop). A nil sampler keeps
// everything with no reason recorded.
func (s *TailSampler) Decide(id TraceID, d time.Duration, out Outcome) (bool, string) {
	if s == nil {
		return true, ""
	}
	if s.slow != nil {
		if thr := s.slow.Threshold(); thr > 0 && d >= thr {
			s.keptSlow.Add(1)
			return true, KeepSlow
		}
	}
	if out.failed() {
		s.keptOutcome.Add(1)
		return true, KeepOutcome
	}
	if sampleTraceID(id, s.Fraction()) {
		s.keptSampled.Add(1)
		return true, KeepSampled
	}
	s.sampledOut.Add(1)
	return false, ""
}

// sampleTraceID makes the deterministic probabilistic call: the trace ID's
// low 8 bytes, read as a big-endian uint64, are compared against
// fraction·2^64. Random IDs make this an unbiased Bernoulli draw, and
// every process sampling the same trace ID at the same fraction agrees.
func sampleTraceID(id TraceID, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	bound := uint64(fraction * float64(1<<63) * 2) // fraction * 2^64, saturating
	return binary.BigEndian.Uint64(id[8:]) < bound
}

// SamplerStats is a point-in-time snapshot of keep/drop accounting.
type SamplerStats struct {
	Fraction    float64 `json:"fraction"`
	KeptSlow    int64   `json:"kept_slow"`
	KeptOutcome int64   `json:"kept_outcome"`
	KeptSampled int64   `json:"kept_sampled"`
	SampledOut  int64   `json:"sampled_out"`
}

// Stats returns the sampler's counters (zero value on nil).
func (s *TailSampler) Stats() SamplerStats {
	if s == nil {
		return SamplerStats{Fraction: 1}
	}
	return SamplerStats{
		Fraction:    s.Fraction(),
		KeptSlow:    s.keptSlow.Load(),
		KeptOutcome: s.keptOutcome.Load(),
		KeptSampled: s.keptSampled.Load(),
		SampledOut:  s.sampledOut.Load(),
	}
}
