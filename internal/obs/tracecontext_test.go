package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const (
	validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	validTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	validSpanID      = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	t.Parallel()
	sc, err := ParseTraceparent(validTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TraceID.String() != validTraceID || sc.SpanID.String() != validSpanID {
		t.Errorf("ids = %s / %s", sc.TraceID, sc.SpanID)
	}
	if sc.Flags&FlagSampled == 0 || sc.Flags != 0x01 {
		t.Errorf("flags = %02x, want sampled", sc.Flags)
	}
	if !sc.Valid() {
		t.Error("parsed context not valid")
	}
}

func TestParseTraceparentFlags(t *testing.T) {
	t.Parallel()
	sc, err := ParseTraceparent("00-" + validTraceID + "-" + validSpanID + "-00")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flags&FlagSampled != 0 {
		t.Error("flags 00 reported sampled")
	}
	// Unknown flag bits are carried, sampled bit still honoured.
	sc, err = ParseTraceparent("00-" + validTraceID + "-" + validSpanID + "-ff")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flags != 0xff || sc.Flags&FlagSampled == 0 {
		t.Errorf("flags = %02x", sc.Flags)
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	t.Parallel()
	// A future version may append extra fields after a separator…
	if _, err := ParseTraceparent("cc-" + validTraceID + "-" + validSpanID + "-01-extra"); err != nil {
		t.Errorf("future version with extra field rejected: %v", err)
	}
	// …and is also accepted with exactly the four version-00 fields.
	if _, err := ParseTraceparent("cc-" + validTraceID + "-" + validSpanID + "-01"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"empty":              "",
		"short":              "00-abc",
		"truncated":          validTraceparent[:54],
		"version-ff":         "ff-" + validTraceID + "-" + validSpanID + "-01",
		"version-upper":      "0A-" + validTraceID + "-" + validSpanID + "-01",
		"version-nonhex":     "zz-" + validTraceID + "-" + validSpanID + "-01",
		"v00-trailing":       validTraceparent + "-extra",
		"future-no-sep":      "cc-" + validTraceID + "-" + validSpanID + "-01x",
		"zero-trace-id":      "00-00000000000000000000000000000000-" + validSpanID + "-01",
		"zero-span-id":       "00-" + validTraceID + "-0000000000000000-01",
		"uppercase-trace-id": "00-" + strings.ToUpper(validTraceID) + "-" + validSpanID + "-01",
		"uppercase-span-id":  "00-" + validTraceID + "-" + strings.ToUpper(validSpanID) + "-01",
		"nonhex-trace-id":    "00-4bf92f3577b34da6a3ce929d0e0e473g-" + validSpanID + "-01",
		"nonhex-flags":       "00-" + validTraceID + "-" + validSpanID + "-0g",
		"bad-separators":     "00_" + validTraceID + "_" + validSpanID + "_01",
	}
	for name, h := range cases {
		if sc, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q parsed to %+v, want error", name, h, sc)
		} else if !errors.Is(err, ErrTraceparent) {
			t.Errorf("%s: error %v does not wrap ErrTraceparent", name, err)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	t.Parallel()
	for i := 0; i < 100; i++ {
		sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Flags: FlagSampled}
		back, err := ParseTraceparent(sc.Traceparent())
		if err != nil {
			t.Fatalf("minted header %q does not parse: %v", sc.Traceparent(), err)
		}
		if back.TraceID != sc.TraceID || back.SpanID != sc.SpanID || back.Flags != sc.Flags {
			t.Fatalf("round trip changed context: %+v -> %+v", sc, back)
		}
	}
	if got := (SpanContext{}).Traceparent(); got != "" {
		t.Errorf("invalid context rendered %q", got)
	}
}

func TestNewIDsNonZeroAndDistinct(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := newTraceID()
		if id.IsZero() {
			t.Fatal("minted zero trace ID")
		}
		if seen[id.String()] {
			t.Fatalf("trace ID %s repeated within 1000 mints", id)
		}
		seen[id.String()] = true
		if newSpanID().IsZero() {
			t.Fatal("minted zero span ID")
		}
	}
}

func TestSanitizeTracestate(t *testing.T) {
	t.Parallel()
	if got := sanitizeTracestate(" vendor=abc,other=def "); got != "vendor=abc,other=def" {
		t.Errorf("trimmed state = %q", got)
	}
	for name, s := range map[string]string{
		"control":   "vendor=a\x01b",
		"non-ascii": "vendor=héllo",
		"oversize":  strings.Repeat("a", maxTracestateLen+1),
		"empty":     "   ",
	} {
		if got := sanitizeTracestate(s); got != "" {
			t.Errorf("%s: kept %q", name, got)
		}
	}
}

func TestContextWithTraceparent(t *testing.T) {
	t.Parallel()
	ctx := contextWithTraceparent(context.Background(), validTraceparent, "vendor=abc")
	sc, ok := spanContextFromContext(ctx)
	if !ok || sc.TraceID.String() != validTraceID || sc.State != "vendor=abc" {
		t.Fatalf("context carries %+v (ok=%v)", sc, ok)
	}
	// Malformed headers leave the context untouched (restart the trace).
	ctx = contextWithTraceparent(context.Background(), "garbage", "vendor=abc")
	if _, ok := spanContextFromContext(ctx); ok {
		t.Error("malformed traceparent stored a span context")
	}
	if _, ok := spanContextFromContext(nil); ok { //nolint:staticcheck // nil safety is the point
		t.Error("nil context returned a span context")
	}
}

// FuzzParseTraceparent asserts the parser never panics, never accepts an
// all-zero ID, and that accepted version-00 headers round-trip exactly.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	f.Add("00-" + validTraceID + "-" + validSpanID + "-00")
	f.Add("cc-" + validTraceID + "-" + validSpanID + "-01-extra")
	f.Add("ff-" + validTraceID + "-" + validSpanID + "-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("")
	f.Add("00-Ab")
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			if sc.Valid() {
				t.Fatalf("error %v but context %+v valid", err, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q yielded invalid context", h)
		}
		if strings.HasPrefix(h, "00-") {
			back, err := ParseTraceparent(sc.Traceparent())
			if err != nil || back != (SpanContext{TraceID: sc.TraceID, SpanID: sc.SpanID, Flags: sc.Flags}) {
				t.Fatalf("version-00 header %q did not round-trip: %+v, %v", h, back, err)
			}
		}
	})
}
