package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTailSamplerSlowAlwaysKept(t *testing.T) {
	t.Parallel()
	slow := newSlowLog(8)
	slow.SetThreshold(10 * time.Millisecond)
	s := NewTailSampler(0, slow) // fraction 0: only policy keeps survive
	kept, reason := s.Decide(newTraceID(), 20*time.Millisecond, Outcome{})
	if !kept || reason != KeepSlow {
		t.Errorf("slow trace: kept=%v reason=%q", kept, reason)
	}
	kept, reason = s.Decide(newTraceID(), time.Millisecond, Outcome{})
	if kept || reason != "" {
		t.Errorf("fast healthy trace at fraction 0: kept=%v reason=%q", kept, reason)
	}
	st := s.Stats()
	if st.KeptSlow != 1 || st.SampledOut != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTailSamplerOutcomeAlwaysKept(t *testing.T) {
	t.Parallel()
	s := NewTailSampler(0, nil)
	for name, out := range map[string]Outcome{
		"error":     {Error: "boom"},
		"aborted":   {Aborted: true},
		"shed":      {Shed: true},
		"truncated": {Truncated: true},
		"http-4xx":  {HTTPStatus: 429},
		"http-5xx":  {HTTPStatus: 503},
	} {
		kept, reason := s.Decide(newTraceID(), time.Microsecond, out)
		if !kept || reason != KeepOutcome {
			t.Errorf("%s: kept=%v reason=%q", name, kept, reason)
		}
	}
	// A 2xx status is a healthy outcome.
	if kept, _ := s.Decide(newTraceID(), time.Microsecond, Outcome{HTTPStatus: 200}); kept {
		t.Error("healthy 200 trace kept at fraction 0")
	}
	if st := s.Stats(); st.KeptOutcome != 6 || st.SampledOut != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTailSamplerFractionDeterministic(t *testing.T) {
	t.Parallel()
	s := NewTailSampler(0.5, nil)
	for i := 0; i < 200; i++ {
		id := newTraceID()
		first, _ := s.Decide(id, time.Microsecond, Outcome{})
		for j := 0; j < 3; j++ {
			if again, _ := s.Decide(id, time.Microsecond, Outcome{}); again != first {
				t.Fatalf("trace %s: decision flipped %v -> %v", id, first, again)
			}
		}
		// Monotone in the fraction: kept at 0.5 implies kept at any higher
		// fraction (the keep set only grows).
		if first && !sampleTraceID(id, 0.9) {
			t.Fatalf("trace %s kept at 0.5 but dropped at 0.9", id)
		}
		if !first && sampleTraceID(id, 0.1) {
			t.Fatalf("trace %s dropped at 0.5 but kept at 0.1", id)
		}
	}
}

func TestTailSamplerFractionBounds(t *testing.T) {
	t.Parallel()
	s := NewTailSampler(1, nil)
	if kept, reason := s.Decide(newTraceID(), time.Microsecond, Outcome{}); !kept || reason != KeepSampled {
		t.Errorf("fraction 1: kept=%v reason=%q", kept, reason)
	}
	s.SetFraction(2.5)
	if s.Fraction() != 1 {
		t.Errorf("fraction clamped to %v, want 1", s.Fraction())
	}
	s.SetFraction(-3)
	if s.Fraction() != 0 {
		t.Errorf("fraction clamped to %v, want 0", s.Fraction())
	}
	var nilSampler *TailSampler
	if kept, _ := nilSampler.Decide(newTraceID(), time.Hour, Outcome{}); !kept {
		t.Error("nil sampler dropped a trace")
	}
	if nilSampler.Fraction() != 1 || nilSampler.Stats().Fraction != 1 {
		t.Error("nil sampler is not keep-all")
	}
}

// TestTracerTailSampling wires a sampler into a Tracer and asserts the ring
// only retains the traces the policy keeps, with KeepReason stamped.
func TestTracerTailSampling(t *testing.T) {
	t.Parallel()
	tc := NewTracer(64)
	slow := newSlowLog(8)
	slow.SetThreshold(time.Hour) // nothing is slow in this test
	tc.SetSampler(NewTailSampler(0, slow))

	healthy := tc.StartTrace("healthy")
	healthy.Finish()
	if tc.Len() != 0 {
		t.Fatalf("healthy trace retained at fraction 0 (%d kept)", tc.Len())
	}

	errored := tc.StartTrace("errored")
	errored.SetOutcome(Outcome{Error: "boom"})
	errored.Finish()
	shed := tc.StartTrace("shed")
	shed.SetOutcome(Outcome{Shed: true, HTTPStatus: 429})
	shed.Finish()
	if tc.Len() != 2 {
		t.Fatalf("kept %d traces, want the errored and shed ones", tc.Len())
	}
	for _, rec := range tc.Snapshot() {
		if rec.KeepReason != KeepOutcome {
			t.Errorf("trace %q keep reason %q, want %q", rec.Root.Name, rec.KeepReason, KeepOutcome)
		}
		if rec.Outcome == nil || !rec.Outcome.failed() {
			t.Errorf("trace %q outcome = %+v", rec.Root.Name, rec.Outcome)
		}
	}
	st := tc.Sampler().Stats()
	if st.KeptOutcome != 2 || st.SampledOut != 1 {
		t.Errorf("sampler stats = %+v", st)
	}
}

// TestTailSamplerConcurrent exercises Decide/SetFraction/Stats under -race.
func TestTailSamplerConcurrent(t *testing.T) {
	t.Parallel()
	s := NewTailSampler(0.5, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Decide(newTraceID(), time.Microsecond, Outcome{})
				if i%50 == 0 {
					s.SetFraction(float64(w) / 8)
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.KeptSampled+st.SampledOut != 8*200 {
		t.Errorf("accounted %d decisions, want %d", st.KeptSampled+st.SampledOut, 8*200)
	}
}

// TestExplainedTraceAlwaysKept: EXPLAIN lives on the trace, so a sampler
// that drops every healthy trace still keeps an explained one, and
// Explains serves its report from the kept traces, most recent first.
func TestExplainedTraceAlwaysKept(t *testing.T) {
	t.Parallel()
	tc := NewTracer(8)
	tc.SetSampler(NewTailSampler(0, nil))
	for i, report := range []any{nil, "first", nil, "second"} {
		tr := tc.StartTrace("q")
		if report != nil {
			tr.Attach(report)
		}
		tr.Finish()
		if i == 0 && tc.Len() != 0 {
			t.Fatal("a healthy unexplained trace survived a zero sampling fraction")
		}
	}
	snap := tc.Snapshot()
	if len(snap) != 2 || snap[0].KeepReason != KeepExplain || snap[0].Explain != "second" {
		t.Fatalf("kept %+v, want the two explained traces", snap)
	}
	ex := tc.Explains()
	if len(ex) != 2 || ex[0].Report != "second" || ex[1].Report != "first" || ex[0].ID <= ex[1].ID {
		t.Errorf("Explains = %+v, want second then first", ex)
	}
	if st := tc.Sampler().Stats(); st.SampledOut != 2 || st.KeptSampled+st.KeptOutcome+st.KeptSlow != 0 {
		t.Errorf("sampler stats %+v: only the two unexplained traces are its decisions", st)
	}
	var nilTracer *Tracer
	if nilTracer.Explains() != nil {
		t.Error("nil tracer has explain reports")
	}
}
