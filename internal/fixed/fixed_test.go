package fixed

import (
	"testing"
	"testing/quick"
)

func TestSatAdd16(t *testing.T) {
	if got := SatAdd16(30000, 30000); got != 32767 {
		t.Errorf("SatAdd16 overflow = %d, want 32767", got)
	}
	if got := SatAdd16(-30000, -30000); got != -32768 {
		t.Errorf("SatAdd16 underflow = %d, want -32768", got)
	}
	if got := SatAdd16(123, -23); got != 100 {
		t.Errorf("SatAdd16(123,-23) = %d, want 100", got)
	}
}

func TestAbsoluteMax(t *testing.T) {
	tests := []struct {
		v, limit, want int32
	}{
		{5, 10, 5},
		{-5, 10, -5},
		{15, 10, 10},
		{-15, 10, -10},
		{10, 10, 10},
		{-10, 10, -10},
	}
	for _, tt := range tests {
		if got := AbsoluteMax(tt.v, tt.limit); got != tt.want {
			t.Errorf("AbsoluteMax(%d, %d) = %d, want %d", tt.v, tt.limit, got, tt.want)
		}
	}
}

func TestGEMMOutputClamp(t *testing.T) {
	// Matches Algorithm 2: absolutemax(acc/32, 32767).
	if got := GEMMOutputClamp(64); got != 2 {
		t.Errorf("clamp(64) = %d, want 2", got)
	}
	if got := GEMMOutputClamp(2147483647); got != 32767 {
		t.Errorf("clamp(max) = %d, want 32767", got)
	}
	if got := GEMMOutputClamp(-2147483648); got != -32767 {
		t.Errorf("clamp(min) = %d, want -32767", got)
	}
}

func TestClampHelpers(t *testing.T) {
	if ClampInt16(40000) != 32767 || ClampInt16(-40000) != -32768 || ClampInt16(5) != 5 {
		t.Error("ClampInt16 wrong")
	}
}

// Property: saturating adds agree with wide arithmetic clamped.
func TestSatAddProperty(t *testing.T) {
	f := func(a, b int16) bool {
		s := int32(a) + int32(b)
		want := s
		if s > 32767 {
			want = 32767
		}
		if s < -32768 {
			want = -32768
		}
		return int32(SatAdd16(a, b)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AbsoluteMax output is always within [-limit, limit] and is the
// identity inside the band.
func TestAbsoluteMaxProperty(t *testing.T) {
	f := func(v int32, l uint16) bool {
		limit := int32(l)
		got := AbsoluteMax(v, limit)
		if got > limit || got < -limit {
			return false
		}
		if v <= limit && v >= -limit {
			return got == v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
