package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestF16ExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-2, 0xc000},
		{0.5, 0x3800},
		{65504, 0x7bff},            // largest normal half
		{6.103515625e-05, 0x0400},  // smallest normal half
		{5.960464477539063e-08, 1}, // smallest subnormal half
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
	}
	for _, c := range cases {
		if got := F16FromF32(c.f); got != c.h {
			t.Fatalf("F16FromF32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if back := F16ToF32(c.h); back != c.f {
			t.Fatalf("F16ToF32(%#04x) = %v, want %v", c.h, back, c.f)
		}
	}
	if got := F16FromF32(1e6); got != 0x7c00 {
		t.Fatalf("overflow should saturate to +Inf, got %#04x", got)
	}
	if got := F16FromF32(float32(math.NaN())); got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
		t.Fatalf("NaN not preserved: %#04x", got)
	}
	if !math.IsNaN(float64(F16ToF32(0x7e00))) {
		t.Fatal("half NaN should decode to NaN")
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
	// nearest-even rounds down to 1.0. One ulp above the midpoint rounds up.
	mid := math.Float32frombits(0x3f800000 | 1<<12)
	if got := F16FromF32(mid); got != 0x3c00 {
		t.Fatalf("midpoint should round to even (0x3c00), got %#04x", got)
	}
	above := math.Float32frombits(0x3f800000 | 1<<12 | 1)
	if got := F16FromF32(above); got != 0x3c01 {
		t.Fatalf("above-midpoint should round up (0x3c01), got %#04x", got)
	}
	// 1 + 3·2^-11 is midway between 1+2^-10 and 1+2^-9: nearest-even goes up
	// to the even code 0x3c02.
	mid2 := math.Float32frombits(0x3f800000 | 3<<12)
	if got := F16FromF32(mid2); got != 0x3c02 {
		t.Fatalf("odd midpoint should round to even (0x3c02), got %#04x", got)
	}
}

func TestF16RoundTripBoundedRelativeError(t *testing.T) {
	rng := tensor.NewRNG(11)
	for i := 0; i < 5000; i++ {
		v := float32(rng.NormFloat64() * math.Pow(10, rng.Float64()*6-3))
		back := F16ToF32(F16FromF32(v))
		av := math.Abs(float64(v))
		if av >= 6.2e-5 && av <= 65504 { // normal half range
			if rel := math.Abs(float64(back-v)) / av; rel > 1.0/2048+1e-9 {
				t.Fatalf("value %v decoded to %v, relative error %v", v, back, rel)
			}
		}
	}
}

func TestF16IdempotentThroughRoundTrip(t *testing.T) {
	// Encoding a value that is already exactly a half must be lossless, so a
	// second encode/decode cycle is the identity — the property that keeps
	// both ends of a delta-coded link bit-identical.
	rng := tensor.NewRNG(12)
	for i := 0; i < 2000; i++ {
		v := float32(rng.NormFloat64() * 10)
		once := F16ToF32(F16FromF32(v))
		twice := F16ToF32(F16FromF32(once))
		if once != twice {
			t.Fatalf("round trip not idempotent: %v -> %v -> %v", v, once, twice)
		}
	}
}

func TestQuantizeF16Vector(t *testing.T) {
	vec := []float32{0, 1, -0.25, 100, -3.5}
	back := DequantizeF16(QuantizeF16(vec))
	for i := range vec {
		if back[i] != vec[i] {
			t.Fatalf("exactly-representable value %v decoded to %v", vec[i], back[i])
		}
	}
}
